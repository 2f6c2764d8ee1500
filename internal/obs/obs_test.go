package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// testNetObs returns obs over four gates on two layers (gates 0,1 on
// layer 1; gates 2,3 on 2) whose token counts read from the returned
// slice, standing in for the balancers' own counters.
func testNetObs() (*NetObs, []int64) {
	tokens := make([]int64, 4)
	return NewNetObs("test-net", []int32{1, 1, 2, 2}, func(g int) int64 { return tokens[g] }), tokens
}

func TestNetObsSnapshot(t *testing.T) {
	o, tokens := testNetObs()
	tokens[0] = 2
	tokens[2] = 5
	o.GateContended(3)

	g := o.GroupSnapshot()
	if g.Name != "test-net" || g.Kind != "network" {
		t.Fatalf("group header: %+v", g)
	}
	if len(g.Gates) != 4 || g.Gates[0].Tokens != 2 || g.Gates[2].Tokens != 5 || g.Gates[3].Contended != 1 {
		t.Fatalf("gates: %+v", g.Gates)
	}
	if len(g.Layers) != 2 {
		t.Fatalf("layers: %+v", g.Layers)
	}
	l1, l2 := g.Layers[0], g.Layers[1]
	if l1.Layer != 1 || l1.Gates != 2 || l1.Tokens != 2 || l1.MaxGateTokens != 2 {
		t.Errorf("layer 1: %+v", l1)
	}
	if l2.Layer != 2 || l2.Gates != 2 || l2.Tokens != 5 || l2.Contended != 1 || l2.MaxGateTokens != 5 {
		t.Errorf("layer 2: %+v", l2)
	}
	if len(g.Hists) != 0 {
		t.Errorf("a bare network times nothing, yet exports hists %+v", g.Hists)
	}
}

func TestCounterObsSnapshot(t *testing.T) {
	net, _ := testNetObs()
	o := NewCounterObs("ctr", net, func() int64 { return 3 })
	o.NextNs.Observe(50)
	o.TraverseNs.Observe(30)
	g := o.GroupSnapshot()
	if g.Kind != "counter" || g.Name != "ctr" {
		t.Fatalf("group header: %+v", g)
	}
	if len(g.Counters) != 1 || g.Counters[0].Name != "ops" || g.Counters[0].Value != 3 {
		t.Fatalf("counters: %+v", g.Counters)
	}
	if len(g.Hists) != 2 || g.Hists[0].Name != "next_ns" || g.Hists[1].Name != "traverse_ns" {
		t.Fatalf("hists = %+v, want next_ns then traverse_ns", g.Hists)
	}
	for _, h := range g.Hists {
		if h.Hist.Count != 1 || h.Hist.Every != SampleEvery {
			t.Errorf("%s: %d samples at period %d, want 1 at %d", h.Name, h.Hist.Count, h.Hist.Every, SampleEvery)
		}
	}
}

func TestCombineObsSnapshot(t *testing.T) {
	net, _ := testNetObs()
	o := NewCombineObs("cmb", net)
	o.SpinRetries.Add(7)
	o.PassServed.Observe(16)
	o.PassQueue.Observe(3)
	g := o.GroupSnapshot()
	if g.Kind != "combining" {
		t.Fatalf("kind: %q", g.Kind)
	}
	byName := map[string]int64{}
	for _, c := range g.Counters {
		byName[c.Name] = c.Value
	}
	if byName["passes"] != 1 || byName["spin_retries"] != 7 {
		t.Fatalf("counters: %+v", g.Counters)
	}
	names := make([]string, len(g.Hists))
	for i, h := range g.Hists {
		names[i] = h.Name
	}
	want := "pass_ns pass_served pass_queue"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("hist order = %q, want %q", got, want)
	}
}

func TestPoolObsSnapshot(t *testing.T) {
	o := NewPoolObs("pool", func() int64 { return 2 }, func() int64 { return 1 })
	o.GetWaits.Inc()
	g := o.GroupSnapshot()
	want := []Metric{{Name: "puts", Value: 2}, {Name: "gets", Value: 1}, {Name: "get_waits", Value: 1}}
	if g.Kind != "pool" || !reflect.DeepEqual(g.Counters, want) {
		t.Fatalf("pool group: %+v", g)
	}
}

func TestRegistryRegisterReplaces(t *testing.T) {
	r := NewRegistry()
	zero := func() int64 { return 0 }
	a, b := NewPoolObs("x", zero, zero), NewPoolObs("x", func() int64 { return 9 }, zero)
	r.Register("lane", a)
	r.Register("lane", b)
	r.Register("other", NewPoolObs("y", zero, zero))
	s := r.Snapshot()
	if len(s.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (replace, not append)", len(s.Groups))
	}
	g := s.Group("lane")
	if g == nil || g.Counters[0].Value != 9 {
		t.Fatalf("replacement not visible: %+v", s.Groups)
	}
	// Registration name overrides the source's own name, and groups
	// are sorted.
	if s.Groups[0].Name != "lane" || s.Groups[1].Name != "other" {
		t.Fatalf("names/order: %+v", s.Groups)
	}
	if s.TakenUnixNano == 0 {
		t.Error("snapshot must be timestamped")
	}
}

func TestSnapshotGroupMissing(t *testing.T) {
	s := NewRegistry().Snapshot()
	if s.Group("nope") != nil {
		t.Error("missing group must be nil")
	}
}

func TestNow(t *testing.T) {
	a := Now()
	time.Sleep(time.Millisecond)
	if b := Now(); b <= a {
		t.Errorf("Now not monotone: %d then %d", a, b)
	}
}

func TestDoRunsWithLabels(t *testing.T) {
	ran := false
	Do("L(4,4)", "traverse", func() { ran = true })
	if !ran {
		t.Fatal("Do did not run f")
	}
}

func TestRegionNoTrace(t *testing.T) {
	r := Region("combine-pass")
	if r == nil {
		t.Fatal("Region returned nil")
	}
	r.End()
}

func TestRenderTable(t *testing.T) {
	r := NewRegistry()
	n, tokens := testNetObs()
	tokens[0] = 1
	tokens[2] = 4
	c := NewCounterObs("net-lane", n, func() int64 { return 0 })
	c.TraverseNs.Observe(120)
	r.Register("net-lane", c)
	cur := r.Snapshot()

	out := RenderTable(nil, cur, 0)
	for _, want := range []string{"net-lane", "layer", "gates", "traverse_ns", "max%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	// Delta rendering: second snapshot after more traffic.
	tokens[2] += 6
	next := r.Snapshot()
	out = RenderTable(&cur, next, time.Second)
	if !strings.Contains(out, "6") {
		t.Errorf("delta table missing per-interval tokens:\n%s", out)
	}

	if out := RenderTable(nil, Snapshot{}, 0); !strings.Contains(out, "no observed groups") {
		t.Errorf("empty table: %q", out)
	}
}

func TestFormatRate(t *testing.T) {
	if got := FormatRate(2_000_000, time.Second); got != "2.00M/s" {
		t.Errorf("rate = %q", got)
	}
	if got := FormatRate(1500, time.Second); got != "1.5k/s" {
		t.Errorf("rate = %q", got)
	}
	if got := FormatRate(5, time.Second); got != "5/s" {
		t.Errorf("rate = %q", got)
	}
	if got := FormatRate(5, 0); got != "-" {
		t.Errorf("zero-elapsed rate = %q", got)
	}
}
