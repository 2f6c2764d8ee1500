package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseFactors(t *testing.T) {
	got, err := parseFactors("2, 3 ,5")
	if err != nil || !reflect.DeepEqual(got, []int{2, 3, 5}) {
		t.Errorf("parseFactors = %v, %v", got, err)
	}
	for _, bad := range []string{"", "2,x", "2,,3"} {
		if _, err := parseFactors(bad); err == nil {
			t.Errorf("parseFactors(%q) accepted", bad)
		}
	}
}

// TestParseTraceEntries: -trace entries are wires, not factors, and a
// bad one is reported as such.
func TestParseTraceEntries(t *testing.T) {
	got, err := parseList("0, 0,3", "entry wire")
	if err != nil || !reflect.DeepEqual(got, []int{0, 0, 3}) {
		t.Errorf("parseList = %v, %v", got, err)
	}
	_, err = parseList("0,x", "entry wire")
	if err == nil || !strings.HasPrefix(err.Error(), `bad entry wire "x"`) {
		t.Errorf("parseList(\"0,x\") error = %v, want it to name the entry wire", err)
	}
}

func TestBuildDispatch(t *testing.T) {
	cases := []struct {
		family  string
		factors string
		p, q, w int
		wantW   int
		wantErr bool
	}{
		{family: "L", factors: "2,3", wantW: 6},
		{family: "k", factors: "4,4", wantW: 16},
		{family: "R", p: 3, q: 5, wantW: 15},
		{family: "bitonic", w: 8, wantW: 8},
		{family: "periodic", w: 4, wantW: 4},
		{family: "oddeven", w: 16, wantW: 16},
		{family: "bubble", w: 5, wantW: 5},
		{family: "K", wantErr: true}, // missing factors
		{family: "R", p: 1, q: 5, wantErr: true},
		{family: "bitonic", wantErr: true}, // missing width
		{family: "nonsense", w: 4, wantErr: true},
		{family: "L", factors: "1,2", wantErr: true},
	}
	for _, c := range cases {
		n, err := build(c.family, c.factors, c.p, c.q, c.w)
		if c.wantErr {
			if err == nil {
				t.Errorf("build(%q,%q,%d,%d,%d) accepted", c.family, c.factors, c.p, c.q, c.w)
			}
			continue
		}
		if err != nil {
			t.Errorf("build(%q,...): %v", c.family, err)
			continue
		}
		if n.Width() != c.wantW {
			t.Errorf("build(%q,...) width %d, want %d", c.family, n.Width(), c.wantW)
		}
	}
}

func TestBuildCustom(t *testing.T) {
	n, err := buildCustom("2,3,2", "R", "opt-bitonic")
	if err != nil {
		t.Fatal(err)
	}
	if n.Width() != 12 || n.MaxBalancerWidth() > 3 {
		t.Errorf("custom L-alike: %v", n)
	}
	k, err := buildCustom("2,3,2", "balancer", "opt-base")
	if err != nil {
		t.Fatal(err)
	}
	if k.Depth() != 5 {
		t.Errorf("custom K-alike depth %d", k.Depth())
	}
	for _, bad := range [][2]string{{"x", "opt-base"}, {"balancer", "x"}} {
		if _, err := buildCustom("2,2", bad[0], bad[1]); err == nil {
			t.Errorf("buildCustom(%v) accepted", bad)
		}
	}
	if _, err := buildCustom("", "balancer", "basic"); err == nil {
		t.Error("missing factors accepted")
	}
	for _, sc := range []string{"basic", "basic-sub"} {
		if _, err := buildCustom("2,2,2", "balancer", sc); err != nil {
			t.Errorf("staircase %s: %v", sc, err)
		}
	}
}

func TestBuildMergeX(t *testing.T) {
	n, err := build("mergex", "", 0, 0, 10)
	if err != nil || n.Width() != 10 {
		t.Errorf("mergex: %v %v", n, err)
	}
}

func TestLoadNetwork(t *testing.T) {
	dir := t.TempDir()
	n, err := build("L", "2,3", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "net.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := loadNetwork(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Width() != 6 || back.Depth() != n.Depth() {
		t.Errorf("loaded network mismatch: %v", back)
	}
	if _, err := loadNetwork(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"width":2,"gates":[{"wires":[0,0]}]}`), 0o644)
	if _, err := loadNetwork(bad); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestVerdict(t *testing.T) {
	if verdict(nil) != "PASS" {
		t.Error("nil verdict")
	}
	n, _ := build("bubble", "", 0, 0, 4)
	if v := verdict(n.VerifyCounting(1)); v == "PASS" {
		t.Error("bubble counting verdict should fail")
	}
}
