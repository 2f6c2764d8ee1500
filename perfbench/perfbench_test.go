package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"countnet/internal/harness"
)

func TestMetricNameGrammar(t *testing.T) {
	for _, s := range []string{"p50_us", "core.build_ms", "obs.hist-observe", "9lives", strings.Repeat("a", 64)} {
		if !validName(s) {
			t.Errorf("validName(%q) = false, want true", s)
		}
	}
	for _, s := range []string{"", "_lead", ".lead", "µs", "a b", "a/b", "a:b", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true, want false", s)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) || seen[d.Name] {
			t.Errorf("metric %q invalid or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !validName(w.name) {
			t.Errorf("workload %q invalid", w.name)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Error("p90 of 99 samples accepted with 9.9 beyond it")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	xs = append(xs, 99)
	if p, err := percentile(xs, 90); err != nil || math.Abs(p-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, %v; want 89.1", p, err)
	}
}

func TestSortOracleCatchesUnsortedBatch(t *testing.T) {
	b := []int64{1, 2, 3, 4}
	sum := batchChecksum(b)
	if err := checkSorted(b, sum); err != nil {
		t.Fatal(err)
	}
	if checkSorted([]int64{1, 3, 2, 4}, sum) == nil {
		t.Error("unsorted batch passed")
	}
	if checkSorted([]int64{1, 2, 3, 5}, sum) == nil {
		t.Error("batch with a changed value passed")
	}
}

func TestCounterOracleCatchesDuplicateAndGap(t *testing.T) {
	var ok bitset
	for v := int64(0); v < 200; v++ {
		if !ok.add(v) {
			t.Fatalf("fresh value %d refused", v)
		}
	}
	if err := ok.gapFree(); err != nil {
		t.Fatal(err)
	}
	if ok.add(77) {
		t.Error("duplicate value accepted")
	}
	if ok.add(-1) {
		t.Error("negative value accepted")
	}
	for _, skip := range []int64{0, 63, 64, 130, 199} {
		var gap bitset
		for v := int64(0); v <= 200; v++ {
			if v != skip {
				gap.add(v)
			}
		}
		if gap.gapFree() == nil {
			t.Errorf("gap at %d passed", skip)
		}
	}
}

func TestLeaseOracleCatchesGapAndDuplicate(t *testing.T) {
	issued := map[string][]int64{leaseWorker: {0, 1, 2, 3, 4, 5, 6, 7}}
	if err := harness.CheckRun(4, issued, issued, nil); err != nil {
		t.Fatal(err)
	}
	gap := map[string][]int64{leaseWorker: {0, 1, 2, 3, 4, 5, 7, 8}}
	if harness.CheckRun(4, gap, gap, nil) == nil {
		t.Error("issue log with a gap passed")
	}
	dup := map[string][]int64{leaseWorker: {0, 1, 2, 3, 4, 5, 6, 6}}
	if harness.CheckRun(4, issued, dup, nil) == nil {
		t.Error("client holding a duplicate value passed")
	}
}

// benchmarkFile is the part of BENCHMARK.json the command must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// printed runs the command and returns the metric names and units of
// its last line, failing the test unless the run was correct.
func printed(t *testing.T, args ...string) map[string]string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb, t.TempDir()); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line: %v", args, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
	}
	units := map[string]string{}
	for name, m := range res.Metrics {
		units[name] = m.Unit
	}
	return units
}

func namesOf(defs []struct{ Name, Unit string }) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.Name] = d.Unit
	}
	return m
}

func sameKeys(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var g, w []string
	for k, u := range got {
		g = append(g, k+" "+u)
	}
	for k, u := range want {
		w = append(w, k+" "+u)
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("%s: printed %v\nBENCHMARK.json lists %v", what, g, w)
	}
}

func TestBenchmarkFileMatchesCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	var listed []string
	for _, w := range f.Workloads {
		listed = append(listed, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(listed, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", listed, ours)
	}
	for _, w := range workloads {
		sameKeys(t, w.name+" untraced", printed(t, "--workload", w.name, "--seconds", "0.5", "--trace", "0"), namesOf(f.EndToEnd))
		sameKeys(t, w.name+" traced", printed(t, "--workload", w.name, "--seconds", "1", "--trace", "1"), namesOf(f.PerLayer))
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sort_batch", "--trace", "2"},
		{"--workload", "sort_batch", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if run(args, &out, &errb, t.TempDir()) == 0 || out.Len() != 0 {
			t.Errorf("%v: exit 0 or printed %q", args, out.String())
		}
	}
}

// TestLeaseHoldsKeepAlive runs lease_bulk and checks that it opens one
// connection per epoch, not one per lease, and leaves the host with no
// more than a handful of new TIME_WAIT sockets.
func TestLeaseHoldsKeepAlive(t *testing.T) {
	before := tcpTimeWait()
	if before < 0 {
		t.Skip("no /proc/net/sockstat")
	}
	w, _ := findWorkload("lease_bulk")
	b, err := w.open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	d0 := dials.Load()
	var st loopStats
	for st.ops < 3*leasesPerEpoch/2 {
		b.step(nil, &st)
	}
	if err := b.verify(&st); err != nil || st.failed != 0 {
		t.Fatalf("verify: %v, %d failed", err, st.failed)
	}
	lb := b.(*leaseBench)
	if got := dials.Load() - d0; got != int64(lb.epochs) {
		t.Errorf("%d connections for %d epochs of %d leases", got, lb.epochs, st.ops)
	}
	if after := tcpTimeWait(); after-before > 4 {
		t.Errorf("TIME_WAIT sockets rose from %d to %d", before, after)
	}
}
