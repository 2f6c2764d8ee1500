package runner

// Tests for the observability integration: the obs-off paths must be
// allocation-free and bit-identical to the uninstrumented seed
// behaviour, and the obs-on paths must route tokens identically while
// recording accurate per-gate counts.

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"countnet/internal/obs"
)

// TestTraverseObsOffAllocFree: with EnableObs never called, the hot
// traversal paths stay allocation-free — the zero-cost contract's
// first half.
func TestTraverseObsOffAllocFree(t *testing.T) {
	a := Compile(counting4())
	if n := testing.AllocsPerRun(200, func() { a.Traverse(1) }); n != 0 {
		t.Errorf("obs-off Traverse allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(200, func() { a.TraverseMutex(2) }); n != 0 {
		t.Errorf("obs-off TraverseMutex allocates %v per run", n)
	}
}

// TestTraverseObsOnAllocFree: with observability on, the walks still
// allocate nothing, so enabling it never perturbs the allocator
// behaviour it is trying to measure.
func TestTraverseObsOnAllocFree(t *testing.T) {
	a := Compile(counting4())
	a.EnableObs("alloc-probe")
	if n := testing.AllocsPerRun(200, func() { a.Traverse(1) }); n != 0 {
		t.Errorf("obs-on Traverse allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(200, func() { a.TraverseMutex(2) }); n != 0 {
		t.Errorf("obs-on TraverseMutex allocates %v per run", n)
	}
	s := a.NewBatchScratch()
	dst := make([]int64, a.Width())
	in := []int64{3, 0, 1, 2}
	if n := testing.AllocsPerRun(200, func() { a.TraverseBatchInto(dst, in, s) }); n != 0 {
		t.Errorf("obs-on TraverseBatchInto allocates %v per run", n)
	}
}

// TestTraverseObsDifferential: an observed network routes every token
// exactly as an unobserved one — same exits for the same arrival
// sequence, for all three traversal modes — its per-gate token counts
// equal the unobserved network's balancer state, its layer totals
// account for precisely the tokens pushed, and, the walks reading no
// clock, it exports no histogram.
func TestTraverseObsDifferential(t *testing.T) {
	net := counting4()
	plain := Compile(net)
	seen := Compile(net)
	o := seen.EnableObs("diff")

	rng := rand.New(rand.NewSource(7))
	tokens := 0
	for i := 0; i < 200; i++ {
		wire := rng.Intn(net.Width())
		if p, s := plain.Traverse(wire), seen.Traverse(wire); p != s {
			t.Fatalf("token %d on wire %d: plain exits %d, observed exits %d", i, wire, p, s)
		}
		tokens++
	}
	for i := 0; i < 50; i++ {
		in := randomTokenCounts(rng, net.Width())
		p := plain.TraverseBatch(in)
		s := seen.TraverseBatch(in)
		if !reflect.DeepEqual(p, s) {
			t.Fatalf("batch %d (%v): plain %v, observed %v", i, in, p, s)
		}
		for _, v := range in {
			tokens += int(v)
		}
	}

	g := o.GroupSnapshot()
	// Every token crosses exactly one gate per layer it traverses; the
	// first layer alone sees each token exactly once in counting4.
	var layer1 int64
	for _, l := range g.Layers {
		if l.Layer == 1 {
			layer1 = l.Tokens
		}
	}
	if layer1 != int64(tokens) {
		t.Errorf("layer-1 token count = %d, want %d (one per injected token)", layer1, tokens)
	}
	assertCountsOnly(t, "atomic", g, plain)

	// Mutex mode, fresh pair (modes must not mix on one Async).
	plainMu, seenMu := Compile(net), Compile(net)
	oMu := seenMu.EnableObs("diff-mu")
	for i := 0; i < 100; i++ {
		wire := rng.Intn(net.Width())
		if p, s := plainMu.TraverseMutex(wire), seenMu.TraverseMutex(wire); p != s {
			t.Fatalf("mutex token %d on wire %d: plain exits %d, observed exits %d", i, wire, p, s)
		}
	}
	g = oMu.GroupSnapshot()
	assertCountsOnly(t, "mutex", g, plainMu)
	for _, l := range g.Layers {
		if l.Contended != 0 {
			t.Errorf("mutex layer %d: %d contended acquisitions from one goroutine, want 0", l.Layer, l.Contended)
		}
	}
}

// assertCountsOnly checks a bare network's group: each gate's token
// count equals the balancer state of want, driven by the same tokens,
// and no histogram is exported.
func assertCountsOnly(t *testing.T, mode string, g obs.GroupSnapshot, want *Async) {
	t.Helper()
	for _, gs := range g.Gates {
		if n := want.hot[gs.Gate].count.Load(); gs.Tokens != n {
			t.Errorf("%s gate %d: %d tokens, want %d", mode, gs.Gate, gs.Tokens, n)
		}
	}
	if len(g.Hists) != 0 {
		t.Errorf("%s: a bare network exports hists %+v; only an owning engine times its walks", mode, g.Hists)
	}
}

// TestTraverseMutexObsCountsContention: a lock walk that finds its
// gate held counts exactly one contended acquisition on that gate and
// its layer, then waits for the lock and routes as usual.
func TestTraverseMutexObsCountsContention(t *testing.T) {
	a := Compile(counting4())
	o := a.EnableObs("contended")
	held := &a.hot[0].mu // gate 0 (wires 0 and 1, layer 1) is wire 0's entry
	held.Lock()
	done := make(chan int)
	go func() { done <- a.TraverseMutex(0) }()
	for o.GroupSnapshot().Gates[0].Contended == 0 {
		runtime.Gosched()
	}
	held.Unlock()
	if pos := <-done; pos != 0 {
		t.Errorf("first token exits on %d, want 0", pos)
	}
	g := o.GroupSnapshot()
	for _, gs := range g.Gates {
		want := int64(0)
		if gs.Gate == 0 {
			want = 1
		}
		if gs.Contended != want {
			t.Errorf("gate %d: %d contended, want %d", gs.Gate, gs.Contended, want)
		}
	}
	if g.Layers[0].Contended != 1 || g.Layers[0].Tokens != 1 {
		t.Errorf("layer 1 = %+v, want 1 token and 1 contended", g.Layers[0])
	}
	if len(g.Hists) != 0 {
		t.Errorf("lock walk exports hists %+v", g.Hists)
	}
}

// TestTraverseObsConcurrent: observed concurrent traversal still lands
// on the seed quiescent state, and snapshots taken mid-flight are safe
// (the race lane makes this a data-race check too).
func TestTraverseObsConcurrent(t *testing.T) {
	net := counting4()
	a := Compile(net)
	o := a.EnableObs("conc")

	const perWire, workers = 200, 8
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = o.GroupSnapshot()
			}
		}
	}()

	got := a.ExitCounts(perWire, workers)
	close(stop)
	snaps.Wait()

	in := make([]int64, net.Width())
	for i := range in {
		in[i] = perWire
	}
	want := ApplyTokens(net, in)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observed concurrent exits %v, want %v", got, want)
	}
	total := int64(perWire * net.Width())
	g := o.GroupSnapshot()
	if g.Layers[0].Tokens != total {
		t.Errorf("layer-1 tokens = %d, want %d", g.Layers[0].Tokens, total)
	}
}

// TestEnableObsIdempotent: a fresh network has no hook, and repeated
// enables return the same state, under the first name given.
func TestEnableObsIdempotent(t *testing.T) {
	a := Compile(counting4())
	if a.watch != nil {
		t.Fatal("fresh Async must have nil obs")
	}
	o1 := a.EnableObs("once")
	o2 := a.EnableObs("twice")
	if o1 != o2 || o1.Name() != "once" {
		t.Fatal("EnableObs must be idempotent")
	}
}

// TestTraverseHookedObsCountsOnly: hooked traversal under observation
// records gate counts but no latency samples — clock reads would break
// deterministic replay of controlled schedules.
func TestTraverseHookedObsCountsOnly(t *testing.T) {
	a := Compile(counting4())
	o := a.EnableObs("hooked")
	a.TraverseHooked(0, func(string) {})
	a.TraverseBatchHooked([]int64{0, 2, 1, 0}, func(string) {})
	g := o.GroupSnapshot()
	if g.Layers[0].Tokens != 4 {
		t.Errorf("hooked layer-1 tokens = %d, want 4", g.Layers[0].Tokens)
	}
	for _, h := range g.Hists {
		if h.Hist.Count != 0 {
			t.Errorf("hooked path recorded %d %s samples; hooked runs must not read the clock", h.Hist.Count, h.Name)
		}
	}
}
