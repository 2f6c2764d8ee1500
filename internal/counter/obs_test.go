package counter

// Tests for the counters' observability integration: obs-off value
// streams must match the seed bit for bit, obs-off and obs-on hot
// paths must stay allocation-free, and the recorded metrics must
// account for the operations actually performed.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"countnet/internal/obs"
)

// TestNetworkCounterObsDifferential: enabling observability changes no
// issued value. Two counters over the same network, driven by the same
// single-threaded request sequence, must produce identical streams.
func TestNetworkCounterObsDifferential(t *testing.T) {
	net := testNetwork(t)
	for _, mutex := range []bool{false, true} {
		plain := NewNetworkCounter(net, mutex)
		seen := NewNetworkCounter(net, mutex)
		seen.EnableObs("ctr-diff", obs.NewRegistry())
		ph, sh := plain.Handle(1), seen.Handle(1)
		for i := 0; i < 300; i++ {
			if p, s := ph.Next(), sh.Next(); p != s {
				t.Fatalf("mutex=%v op %d: plain issued %d, observed issued %d", mutex, i, p, s)
			}
		}
	}
}

// TestCombiningCounterObsDifferential: same for the flat-combining
// counter, over a mixed Next/NextBlock sequence.
func TestCombiningCounterObsDifferential(t *testing.T) {
	net := testNetwork(t)
	plain := NewCombiningCounter(net)
	seen := NewCombiningCounter(net)
	o := seen.EnableObs("cmb-diff", obs.NewRegistry())
	ph, sh := plain.Handle(0).(*CombiningHandle), seen.Handle(0).(*CombiningHandle)
	served := int64(0)
	for i := 0; i < 100; i++ {
		if p, s := ph.Next(), sh.Next(); p != s {
			t.Fatalf("op %d: plain issued %d, observed issued %d", i, p, s)
		}
		served++
		n := 1 + i%7
		pb, sb := make([]int64, n), make([]int64, n)
		ph.NextBlock(pb)
		sh.NextBlock(sb)
		for k := range pb {
			if pb[k] != sb[k] {
				t.Fatalf("block %d slot %d: plain %d, observed %d", i, k, pb[k], sb[k])
			}
		}
		served += int64(n)
	}
	g := o.GroupSnapshot()
	var passes, ops int64
	for _, c := range g.Counters {
		if c.Name == "passes" {
			passes = c.Value
		}
	}
	for _, h := range g.Hists {
		if h.Name == "pass_served" {
			ops = h.Hist.Sum
		}
	}
	if passes != 200 {
		t.Errorf("passes = %d, want 200 (one per request, single-threaded)", passes)
	}
	if ops != served {
		t.Errorf("pass_served sum = %d, want %d (every value accounted)", ops, served)
	}
}

// TestCounterObsOffAllocFree: with observability never enabled, the
// per-value hot paths allocate nothing.
func TestCounterObsOffAllocFree(t *testing.T) {
	c := NewNetworkCounter(testNetwork(t), false)
	h := c.Handle(0)
	if n := testing.AllocsPerRun(200, func() { h.Next() }); n != 0 {
		t.Errorf("obs-off handle Next allocates %v per run", n)
	}
	cc := NewCombiningCounter(testNetwork(t))
	ch := cc.Handle(0).(*CombiningHandle)
	if n := testing.AllocsPerRun(200, func() { ch.Next() }); n != 0 {
		t.Errorf("obs-off combining Next allocates %v per run", n)
	}
}

// TestCounterObsOnAllocFree: the instrumented paths allocate nothing
// either — histograms and padded counters are fixed-size atomics.
func TestCounterObsOnAllocFree(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewNetworkCounter(testNetwork(t), false)
	c.EnableObs("alloc-ctr", reg)
	h := c.Handle(0)
	if n := testing.AllocsPerRun(200, func() { h.Next() }); n != 0 {
		t.Errorf("obs-on handle Next allocates %v per run", n)
	}
	cc := NewCombiningCounter(testNetwork(t))
	cc.EnableObs("alloc-cmb", reg)
	ch := cc.Handle(0).(*CombiningHandle)
	if n := testing.AllocsPerRun(200, func() { ch.Next() }); n != 0 {
		t.Errorf("obs-on combining Next allocates %v per run", n)
	}
}

// TestCounterObsConcurrent: the Fetch&Increment contract survives with
// observability on, concurrent snapshots included, and the ops counter
// accounts for every issued value. Latency is sampled per handle: each
// handle times exactly its every obs.SampleEvery-th draw, the
// histograms report that period, and the exposition scales their
// counts by it. Doubles as the race-lane check.
func TestCounterObsConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewNetworkCounter(testNetwork(t), false)
	o := c.EnableObs("conc-ctr", reg)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
				_ = reg.WritePrometheus(io.Discard) // renders read the histograms mid-draw
			}
		}
	}()

	const workers, perWorker = 8, 400
	vals := collectConcurrent(c, workers, perWorker)
	close(stop)
	<-done
	assertExactRange(t, vals)
	if got := o.OpsFn(); got != workers*perWorker {
		t.Errorf("ops = %d, want %d", got, workers*perWorker)
	}
	const samples = workers * (perWorker / obs.SampleEvery) // Σ⌊ops_h/64⌋
	for name, h := range map[string]*obs.Hist{"next_ns": o.NextNs, "traverse_ns": o.TraverseNs} {
		s := h.Snapshot()
		if s.Count != samples || s.Every != obs.SampleEvery {
			t.Errorf("%s: %d samples at period %d, want %d at %d", name, s.Count, s.Every, samples, obs.SampleEvery)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`countnet_hist_count{group="conc-ctr",name="next_ns"} %d`+"\n", samples*obs.SampleEvery)
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition lacks the scaled count %q:\n%s", want, b.String())
	}
}

// TestSharedNextSamplesBySequence: the shared-dispatch Next times the
// values whose dispatch sequence number is a multiple of
// obs.SampleEvery, so the sample count is ⌊N/64⌋ of the total however
// the goroutines interleave (per-goroutine ticks would give
// Σ⌊ops_g/64⌋, which is less here), and a handle's draws do not move
// the shared sequence.
func TestSharedNextSamplesBySequence(t *testing.T) {
	for _, mutex := range []bool{false, true} {
		c := NewNetworkCounter(testNetwork(t), mutex)
		o := c.EnableObs("shared-seq", obs.NewRegistry())
		const workers, perWorker = 4, 100
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					c.Next()
				}
			}()
		}
		wg.Wait()
		const shared = workers * perWorker / obs.SampleEvery // 400/64 = 6, not 4·⌊100/64⌋ = 4
		if n := o.NextNs.Snapshot().Count; n != shared {
			t.Fatalf("mutex=%v: %d next_ns samples after %d shared draws, want %d", mutex, n, workers*perWorker, shared)
		}
		h := c.Handle(0)
		for i := 0; i < obs.SampleEvery-1; i++ {
			h.Next()
		}
		if n := o.NextNs.Snapshot().Count; n != shared {
			t.Fatalf("mutex=%v: handle draws below one period recorded samples: %d, want %d", mutex, n, shared)
		}
		h.Next()
		c.Next() // sequence 401: not a multiple of 64
		if n := o.NextNs.Snapshot().Count; n != shared+1 {
			t.Fatalf("mutex=%v: %d samples, want %d after the handle's 64th draw", mutex, n, shared+1)
		}
		if n := o.TraverseNs.Snapshot().Count; n != shared+1 {
			t.Fatalf("mutex=%v: %d traverse_ns samples, want %d (one per timed value)", mutex, n, shared+1)
		}
	}
}

// TestTimedPairsNextAndTraverse: a timed value records next_ns and
// traverse_ns from one start, the walk before the local counter, so in
// both balancer modes, for shared Next and for handles alike, the two
// histograms hold equal counts at the same period and the walks sum to
// no more than the draws.
func TestTimedPairsNextAndTraverse(t *testing.T) {
	for _, mutex := range []bool{false, true} {
		for _, path := range []string{"shared", "handle"} {
			c := NewNetworkCounter(testNetwork(t), mutex)
			o := c.EnableObs("timed-pair", obs.NewRegistry())
			next := c.Next
			if path == "handle" {
				next = c.Handle(3).Next
			}
			const draws = 10 * obs.SampleEvery
			for i := 0; i < draws; i++ {
				next()
			}
			n, tr := o.NextNs.Snapshot(), o.TraverseNs.Snapshot()
			if n.Count != draws/obs.SampleEvery || tr.Count != n.Count || tr.Every != n.Every || n.Every != obs.SampleEvery {
				t.Errorf("mutex=%v %s: next_ns %d@%d, traverse_ns %d@%d, want %d each at %d",
					mutex, path, n.Count, n.Every, tr.Count, tr.Every, draws/obs.SampleEvery, obs.SampleEvery)
			}
			if tr.Sum > n.Sum {
				t.Errorf("mutex=%v %s: traverse_ns sum %d exceeds next_ns sum %d", mutex, path, tr.Sum, n.Sum)
			}
		}
	}
}

// TestCombiningCounterObsConcurrent: same for the combining counter;
// pass_served must account for every value across all combine passes.
func TestCombiningCounterObsConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCombiningCounter(testNetwork(t))
	o := c.EnableObs("conc-cmb", reg)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
			}
		}
	}()

	const workers, perWorker = 8, 400
	vals := collectConcurrent(c, workers, perWorker)
	close(stop)
	<-done
	assertExactRange(t, vals)
	s := o.PassServed.Snapshot()
	if s.Sum != workers*perWorker {
		t.Errorf("pass_served sum = %d, want %d", s.Sum, workers*perWorker)
	}
	// Every pass records one sample in each pass histogram; the passes
	// counter is read from pass_served.
	var passes int64
	for _, m := range o.GroupSnapshot().Counters {
		if m.Name == "passes" {
			passes = m.Value
		}
	}
	if q, ns := o.PassQueue.Snapshot().Count, o.PassNs.Snapshot().Count; passes != s.Count || q != s.Count || ns != s.Count {
		t.Errorf("passes = %d, pass_served %d, pass_queue %d and pass_ns %d samples; want all equal", passes, s.Count, q, ns)
	}
}

// TestCounterEnableObsRegisters: EnableObs registers the group under
// the given name (defaulting to the package registry when nil is
// passed would pollute global state, so tests use a private one), and
// re-enabling replaces rather than duplicates.
func TestCounterEnableObsRegisters(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewNetworkCounter(testNetwork(t), false)
	o1 := c.EnableObs("lane", reg)
	o2 := c.EnableObs("lane", reg)
	if o1 != o2 {
		t.Fatal("EnableObs must be idempotent")
	}
	s := reg.Snapshot()
	if len(s.Groups) != 1 || s.Groups[0].Name != "lane" {
		t.Fatalf("registry groups: %+v", s.Groups)
	}
	if s.Groups[0].Kind != "counter" {
		t.Fatalf("kind = %q, want counter", s.Groups[0].Kind)
	}
}

// TestObsCountsReadEngineState: snapshots read per-gate tokens from the
// balancers and "ops" from the local counters, so every traversal mode
// is counted — traffic from before EnableObs included — while
// snapshots run concurrently, and Reset clears the token counts.
func TestObsCountsReadEngineState(t *testing.T) {
	net := testNetwork(t)
	w := net.Width()
	for _, mutex := range []bool{false, true} {
		reg := obs.NewRegistry()
		c := NewNetworkCounter(net, mutex)
		c.Next()
		o := c.EnableObs("engine-state", reg)

		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					_ = reg.Snapshot()
				}
			}
		}()
		const workers, rounds = 4, 50
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				h := c.Handle(g)
				block := make([]int64, 3)
				for i := 0; i < rounds; i++ {
					h.Next()
					c.NextBlock(block)
					if !mutex {
						// Raw atomic traffic: tokens without values.
						c.async.Traverse((g + i) % w)
					}
				}
			}(g)
		}
		wg.Wait()
		values := int64(1 + workers*rounds*4)
		tokens := values
		if !mutex {
			// Hooked draws and raw hooked and batch traversals share the
			// atomic balancers.
			yield := func(string) {}
			for i := 0; i < w; i++ {
				c.NextOnHooked(i, yield)
				c.async.TraverseHooked(i, yield)
			}
			entry := make([]int64, w)
			for i := range entry {
				entry[i] = int64(i)
			}
			c.async.TraverseBatchInto(make([]int64, w), entry, nil)
			values += int64(w)
			tokens = values + int64(workers*rounds) + int64(w) + int64(w*(w-1)/2)
		}
		close(stop)
		<-done

		g := o.GroupSnapshot()
		for _, l := range g.Layers {
			if l.Tokens != tokens {
				t.Errorf("mutex=%v layer %d tokens = %d, want %d injected", mutex, l.Layer, l.Tokens, tokens)
			}
		}
		if len(g.Counters) != 1 || g.Counters[0].Name != "ops" || g.Counters[0].Value != values {
			t.Errorf("mutex=%v counters = %+v, want ops = %d", mutex, g.Counters, values)
		}

		c.async.Reset()
		for _, gs := range o.GroupSnapshot().Gates {
			if gs.Tokens != 0 {
				t.Errorf("mutex=%v gate %d holds %d tokens after Reset", mutex, gs.Gate, gs.Tokens)
			}
		}
	}
}
