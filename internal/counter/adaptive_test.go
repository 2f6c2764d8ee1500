package counter

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"countnet/internal/obs"
)

// collectAdaptive runs workers goroutines drawing perWorker values
// each through adaptive handles and returns consumed ∪ unserved: the
// prefetch buffers hold values that were drawn from an engine but not
// yet returned by Next, and the gap-free contract covers both.
func collectAdaptive(c *AdaptiveCounter, workers, perWorker int, block int) []int64 {
	out := make([][]int64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := c.Handle(g).(*AdaptiveHandle)
			vals := make([]int64, 0, perWorker)
			for len(vals) < perWorker {
				if block > 1 && len(vals)%3 == 0 && perWorker-len(vals) >= block {
					dst := make([]int64, block)
					h.NextBlock(dst)
					vals = append(vals, dst...)
				} else {
					vals = append(vals, h.Next())
				}
			}
			out[g] = append(vals, h.Unserved()...)
		}(g)
	}
	wg.Wait()
	var all []int64
	for _, vs := range out {
		all = append(all, vs...)
	}
	return all
}

// TestAdaptiveFetchIncrement: the headline guarantee on each fixed
// engine — consumed ∪ unserved is exactly 0..N-1 under real
// concurrency.
func TestAdaptiveFetchIncrement(t *testing.T) {
	for _, k := range []EngineKind{EngineAtomic, EngineNetwork, EngineCombining} {
		c := NewAdaptiveCounter(testNetwork(t), k)
		vals := collectAdaptive(c, 8, 300, 5)
		assertExactRange(t, vals)
	}
}

// TestAdaptiveSwitchStress is the race-lane stress test: workers draw
// while the main goroutine cycles the engine through every kind many
// times. No value may be lost or duplicated across any transition.
func TestAdaptiveSwitchStress(t *testing.T) {
	c := NewAdaptiveCounter(testNetwork(t), EngineAtomic)
	const workers, perWorker = 8, 400
	var stop atomic.Bool
	var sw sync.WaitGroup
	sw.Add(1)
	go func() {
		defer sw.Done()
		kinds := []EngineKind{EngineNetwork, EngineCombining, EngineAtomic}
		for i := 0; !stop.Load(); i++ {
			c.SwitchTo(kinds[i%len(kinds)])
		}
	}()
	vals := collectAdaptive(c, workers, perWorker, 7)
	stop.Store(true)
	sw.Wait()
	if c.Switches() == 0 {
		t.Fatal("stress run completed without a single engine switch")
	}
	assertExactRange(t, vals)
	t.Logf("%d switches across %d values", c.Switches(), len(vals))
}

// TestAdaptiveSequentialSwitchAccounting pins the fence arithmetic
// single-threaded, including re-entering an engine whose issued count
// is already non-zero.
func TestAdaptiveSequentialSwitchAccounting(t *testing.T) {
	c := NewAdaptiveCounter(testNetwork(t), EngineAtomic)
	h := c.Handle(0).(*AdaptiveHandle)
	var vals []int64
	draw := func(n int) {
		for i := 0; i < n; i++ {
			vals = append(vals, h.Next())
		}
	}
	draw(10)
	c.SwitchTo(EngineNetwork)
	draw(7)
	c.SwitchTo(EngineCombining)
	draw(23)
	c.SwitchTo(EngineAtomic) // revisit: atomic engine resumes mid-count
	draw(5)
	c.SwitchTo(EngineNetwork) // revisit
	draw(9)
	vals = append(vals, h.Unserved()...)
	assertExactRange(t, vals)
	if got, want := c.Switches(), int64(4); got != want {
		t.Fatalf("Switches() = %d, want %d", got, want)
	}
}

// TestAdaptiveSwitchToSameEngineIsNoop: no epoch churn, no switch
// counted.
func TestAdaptiveSwitchToSameEngineIsNoop(t *testing.T) {
	c := NewAdaptiveCounter(testNetwork(t), EngineNetwork)
	c.SwitchTo(EngineNetwork)
	if c.Switches() != 0 {
		t.Fatalf("Switches() = %d after no-op switch", c.Switches())
	}
	if c.Strategy() != EngineNetwork {
		t.Fatalf("Strategy() = %v", c.Strategy())
	}
}

// TestAdaptiveObsOffDifferential pins the obs-off adaptive counter to
// the seed oracles: on a fixed engine, the handle's Next stream equals
// the corresponding static counter's handle stream, and NextBlock
// equals block-for-block.
func TestAdaptiveObsOffDifferential(t *testing.T) {
	net := testNetwork(t)
	t.Run("next/atomic", func(t *testing.T) {
		c := NewAdaptiveCounter(net, EngineAtomic)
		h := c.Handle(0).(*AdaptiveHandle)
		oracle := NewAtomicCounter()
		for i := 0; i < 500; i++ {
			if got, want := h.Next(), oracle.Next(); got != want {
				t.Fatalf("value %d: adaptive %d != oracle %d", i, got, want)
			}
		}
	})
	t.Run("next/network", func(t *testing.T) {
		c := NewAdaptiveCounter(net, EngineNetwork)
		h := c.Handle(0).(*AdaptiveHandle)
		oracle := NewNetworkCounter(net, false).Handle(0)
		for i := 0; i < 500; i++ {
			if got, want := h.Next(), oracle.Next(); got != want {
				t.Fatalf("value %d: adaptive %d != oracle %d", i, got, want)
			}
		}
	})
	for _, k := range []EngineKind{EngineAtomic, EngineNetwork, EngineCombining} {
		t.Run("block/"+k.String(), func(t *testing.T) {
			c := NewAdaptiveCounter(net, k)
			h := c.Handle(0).(*AdaptiveHandle)
			var oracle BlockCounter
			switch k {
			case EngineAtomic:
				oracle = NewAtomicCounter()
			case EngineNetwork:
				oracle = NewNetworkCounter(net, false).Handle(0).(*handle)
			default:
				oracle = NewCombiningCounter(net).Handle(0).(*CombiningHandle)
			}
			got := make([]int64, 64)
			want := make([]int64, 64)
			for _, n := range []int{1, 3, 16, 64, 5, 2} {
				h.NextBlock(got[:n])
				oracle.NextBlock(want[:n])
				for i := 0; i < n; i++ {
					if got[i] != want[i] {
						t.Fatalf("block %d value %d: adaptive %d != oracle %d", n, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestAdaptiveUnserved: after one Next the rest of the prefetch block
// sits in the buffer, and consumed ∪ unserved is gap-free.
func TestAdaptiveUnserved(t *testing.T) {
	c := NewAdaptiveCounter(testNetwork(t), EngineAtomic)
	h := c.Handle(0).(*AdaptiveHandle)
	vals := []int64{h.Next()}
	un := h.Unserved()
	if len(un) != atomicPrefetch-1 {
		t.Fatalf("Unserved() has %d values, want %d", len(un), atomicPrefetch-1)
	}
	assertExactRange(t, append(vals, un...))
}

// TestAdaptiveAllocFree pins the zero-allocation contract on the
// steady-state Next and NextBlock fast paths, obs off and on.
func TestAdaptiveAllocFree(t *testing.T) {
	net := testNetwork(t)
	for _, withObs := range []bool{false, true} {
		name := "obs=off"
		if withObs {
			name = "obs=on"
		}
		t.Run(name, func(t *testing.T) {
			for _, k := range []EngineKind{EngineAtomic, EngineNetwork, EngineCombining} {
				c := NewAdaptiveCounter(net, k)
				if withObs {
					c.EnableObs("alloc-"+k.String(), obs.NewRegistry())
				}
				h := c.Handle(0).(*AdaptiveHandle)
				h.Next() // warm the buffer and any lazy engine state
				if n := testing.AllocsPerRun(500, func() { h.Next() }); n != 0 {
					t.Errorf("%s Next: %v allocs/op", k, n)
				}
				dst := make([]int64, 32)
				if n := testing.AllocsPerRun(200, func() { h.NextBlock(dst) }); n != 0 {
					t.Errorf("%s NextBlock: %v allocs/op", k, n)
				}
			}
		})
	}
}

// TestChooseEngineBands pins the governor's banding, including the
// hysteresis margins that prevent thrashing at a band edge.
func TestChooseEngineBands(t *testing.T) {
	// atomic ≤ 2, network ≤ 6, h = 0.3
	cases := []struct {
		cur  EngineKind
		load float64
		want EngineKind
	}{
		{EngineAtomic, 0.5, EngineAtomic},
		{EngineAtomic, 2.2, EngineAtomic},    // in network band but within hysteresis
		{EngineAtomic, 3.0, EngineNetwork},   // clears 2.0*1.3
		{EngineAtomic, 9.0, EngineCombining}, // clears 6.0*1.3
		{EngineNetwork, 5.0, EngineNetwork},
		{EngineNetwork, 1.8, EngineNetwork}, // below 2.0 but within hysteresis
		{EngineNetwork, 1.0, EngineAtomic},  // below 2.0*0.7
		{EngineNetwork, 8.5, EngineCombining},
		{EngineCombining, 10, EngineCombining},
		{EngineCombining, 5.0, EngineCombining}, // within hysteresis of 6.0
		{EngineCombining, 4.0, EngineNetwork},   // below 6.0*0.7
		{EngineCombining, 0.5, EngineAtomic},
	}
	for _, tc := range cases {
		if got := chooseEngine(tc.cur, tc.load); got != tc.want {
			t.Errorf("chooseEngine(%v, %.1f) = %v, want %v", tc.cur, tc.load, got, tc.want)
		}
	}
}

// TestAdaptiveGovernorRequiresObs: the governor reads and publishes
// through obs, so starting it blind is an error.
func TestAdaptiveGovernorRequiresObs(t *testing.T) {
	c := NewAdaptiveCounter(testNetwork(t), EngineAtomic)
	if err := c.StartGovernor(); err == nil {
		t.Fatal("StartGovernor without EnableObs did not error")
	}
}

// TestGovernorDecisionStep pins the decision step over scripted
// ticks: the dwell (one tick beyond an edge does not switch, two
// consecutive ones do, and a tick back inside the band restarts the
// count), the hysteresis margins, and the combining block's grow and
// shrink within its bounds.
func TestGovernorDecisionStep(t *testing.T) {
	c := NewAdaptiveCounter(testNetwork(t), EngineAtomic)
	o := c.EnableObs("decide", obs.NewRegistry())
	var g govState
	step := func(load, occ float64, want EngineKind, wantBlock int) {
		t.Helper()
		c.decide(&g, GovernorTick{Load: load, Occupancy: occ}, nil, nil)
		if got := c.Strategy(); got != want {
			t.Fatalf("after tick {%.2f %.2f}: strategy %v, want %v", load, occ, got, want)
		}
		if got := c.CombineBlock(); got != wantBlock {
			t.Fatalf("after tick {%.2f %.2f}: block %d, want %d", load, occ, got, wantBlock)
		}
	}
	// Dwell: one tick beyond the edge, then one back inside, restarts.
	step(3, 0, EngineAtomic, 16)
	step(1, 0, EngineAtomic, 16)
	step(3, 0, EngineAtomic, 16)
	if c.Switches() != 0 {
		t.Fatalf("Switches() = %d before any dwell completed", c.Switches())
	}
	step(3, 0, EngineNetwork, 16)
	if r := o.Reason(); r != "load 3.00 -> network" {
		t.Fatalf("switch reason %q", r)
	}
	// Hysteresis: 1.8 is below the atomic edge of 2 but within 30%.
	step(1.8, 0, EngineNetwork, 16)
	step(1.8, 0, EngineNetwork, 16)
	// Upward: 7 is in the combining band but within 6×1.3; the block
	// is not retuned while another engine is active.
	step(7, 2, EngineNetwork, 16)
	step(7, 2, EngineNetwork, 16)
	step(9, 2, EngineNetwork, 16)
	step(9, 2, EngineCombining, 16)
	// Block: doubles at occupancy ≥ 1.5 up to 64, halves at ≤ 0.75
	// down to 8, holds between and when no pass ran.
	step(9, 1.5, EngineCombining, 32)
	step(9, 3, EngineCombining, 64)
	step(9, 3, EngineCombining, 64)
	step(9, 1, EngineCombining, 64)
	step(9, 0, EngineCombining, 64)
	step(9, 0.75, EngineCombining, 32)
	step(9, 0.5, EngineCombining, 16)
	step(9, 0.5, EngineCombining, 8)
	step(9, 0.5, EngineCombining, 8)
	if got := o.Block.Load(); got != 8 {
		t.Fatalf("combine_block gauge = %d, want 8", got)
	}
	// Downward hysteresis from combining: 5 stays, 0.5 drops to atomic.
	step(5, 0, EngineCombining, 8)
	step(5, 0, EngineCombining, 8)
	step(0.5, 0, EngineCombining, 8)
	step(0.5, 0, EngineAtomic, 8)
	if c.Switches() != 3 {
		t.Fatalf("Switches() = %d, want 3", c.Switches())
	}
}

// TestAdaptiveGovernorLive runs the governor for at least ten
// intervals against mixed live traffic — prefetching Next, NextBlock
// of varying sizes and the counter-level Next and NextBlock — while a
// scripted decision step forces switches and block retunes beside it.
// After Close, consumed ∪ unserved must be exactly 0..N-1: the
// governor draws nothing of its own. The load signal must have been
// sampled into draw_ns at period SampleEvery and published as
// est_load_milli.
func TestAdaptiveGovernorLive(t *testing.T) {
	c := NewAdaptiveCounter(testNetwork(t), EngineAtomic)
	reg := obs.NewRegistry()
	o := c.EnableObs("governed", reg)
	if err := c.StartGovernor(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var stop atomic.Bool
	const workers = 6
	out := make([][]int64, workers+1)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := c.Handle(g).(*AdaptiveHandle)
			var vals []int64
			var dst [64]int64
			sizes := []int{1, 3, 16, 64, 5}
			for i := 0; !stop.Load(); i++ {
				if i%4 == 3 {
					n := sizes[(i/4)%len(sizes)]
					h.NextBlock(dst[:n])
					vals = append(vals, dst[:n]...)
					continue
				}
				vals = append(vals, h.Next())
			}
			out[g] = append(vals, h.Unserved()...)
		}(g)
	}
	wg.Add(2)
	go func() { // counter-level draws through the shared direct handle
		defer wg.Done()
		var vals []int64
		var dst [7]int64
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				vals = append(vals, c.Next())
				continue
			}
			c.NextBlock(dst[:])
			vals = append(vals, dst[:]...)
		}
		out[workers] = vals
	}()
	go func() { // scripted ticks beside the real governor
		defer wg.Done()
		script := []GovernorTick{{Load: 3}, {Load: 3}, {Load: 9}, {Load: 9},
			{Load: 9, Occupancy: 2}, {Load: 9, Occupancy: 0.5}, {Load: 0.5}, {Load: 0.5}}
		var g govState
		for i := 0; !stop.Load(); i++ {
			c.decide(&g, script[i%len(script)], nil, nil)
			time.Sleep(govInterval / 4)
		}
	}()
	// The estimate is read while traffic runs: a tick after the
	// workers stop publishes a true load of 0. Oversubscribed, the
	// ticking goroutines may wait a whole preemption slice per tick, so
	// the window also lasts until the script has switched a few times.
	var est int64
	start := time.Now()
	for time.Since(start) < 10*govInterval || est == 0 || c.Switches() < 3 {
		if time.Since(start) > 10*time.Second {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("after 10s: load estimate %d milli, %d switches", est, c.Switches())
		}
		time.Sleep(govInterval)
		if v := o.LoadMilli.Load(); v != 0 {
			est = v
		}
	}
	stop.Store(true)
	wg.Wait()
	c.Close()

	var all []int64
	for _, vs := range out {
		all = append(all, vs...)
	}
	all = append(all, c.dir.Unserved()...)
	assertExactRange(t, all)

	snap := reg.Snapshot()
	g := snap.Group("governed")
	if g == nil {
		t.Fatal("governed group missing from snapshot")
	}
	if g.Kind != "adaptive" {
		t.Fatalf("group kind = %q, want adaptive", g.Kind)
	}
	var draw *obs.HistSnapshot
	for i := range g.Hists {
		if g.Hists[i].Name == "draw_ns" {
			draw = &g.Hists[i].Hist
		}
	}
	if draw == nil || draw.Count == 0 {
		t.Fatalf("draw_ns has no samples: %+v", draw)
	}
	if draw.Period() != obs.SampleEvery {
		t.Fatalf("draw_ns period = %d, want %d", draw.Period(), obs.SampleEvery)
	}
	exported := false
	for _, m := range g.Gauges {
		exported = exported || m.Name == "est_load_milli"
	}
	if !exported {
		t.Fatalf("est_load_milli gauge missing: %+v", g.Gauges)
	}
	t.Logf("%d values, %d switches, %d draw_ns samples, load estimate %.3f over %v",
		len(all), c.Switches(), draw.Count, float64(est)/1000, time.Since(start))
	c.Close() // idempotent with the deferred Close
}

// TestAdaptiveObsSnapshot checks the strategy gauges and status
// strings the netmon table and Prometheus exposition rely on.
func TestAdaptiveObsSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewAdaptiveCounter(testNetwork(t), EngineAtomic)
	c.EnableObs("adapt", reg)
	h := c.Handle(0).(*AdaptiveHandle)
	for i := 0; i < 40; i++ {
		h.Next()
	}
	c.SwitchTo(EngineCombining)
	for i := 0; i < 40; i++ {
		h.Next()
	}
	s := reg.Snapshot()
	g := s.Group("adapt")
	if g == nil {
		t.Fatal("adapt group missing")
	}
	want := map[string]int64{}
	for _, m := range g.Counters {
		want[m.Name] = m.Value
	}
	if want["switches"] != 1 {
		t.Fatalf("switches counter = %d, want 1", want["switches"])
	}
	if want["ops"] < 80 {
		t.Fatalf("ops counter = %d, want >= 80", want["ops"])
	}
	gauges := map[string]int64{}
	for _, m := range g.Gauges {
		gauges[m.Name] = m.Value
	}
	if gauges["strategy"] != int64(EngineCombining) {
		t.Fatalf("strategy gauge = %d, want %d", gauges["strategy"], int64(EngineCombining))
	}
	if gauges["combine_block"] == 0 {
		t.Fatal("combine_block gauge missing or zero")
	}
	status := map[string]string{}
	for _, m := range g.Status {
		status[m.Name] = m.Value
	}
	if status["strategy"] != "combining" {
		t.Fatalf("strategy status = %q, want combining", status["strategy"])
	}
	if status["last_switch_reason"] != "manual" {
		t.Fatalf("last_switch_reason = %q, want manual", status["last_switch_reason"])
	}
	// Sub-engines are registered as their own groups.
	if s.Group("adapt.network") == nil || s.Group("adapt.combining") == nil {
		t.Fatal("sub-engine groups missing from snapshot")
	}
}
