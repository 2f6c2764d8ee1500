package counter

import (
	"sync"
	"testing"

	"countnet/internal/obs"
)

// collectAdaptive runs workers goroutines drawing perWorker values
// each through adaptive handles and returns consumed ∪ unserved: the
// prefetch blocks hold values that were drawn from the word but not
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

// TestAdaptiveFetchIncrement: the headline guarantee — consumed ∪
// unserved is exactly 0..N-1 under real concurrency, with handles
// mixing prefetched Next and NextBlock and the counter-level draws
// running beside them.
func TestAdaptiveFetchIncrement(t *testing.T) {
	c := NewAdaptiveCounter()
	var direct []int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var dst [7]int64
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				direct = append(direct, c.Next())
				continue
			}
			c.NextBlock(dst[:])
			direct = append(direct, dst[:]...)
		}
	}()
	vals := collectAdaptive(c, 8, 300, 5)
	<-done
	assertExactRange(t, append(vals, direct...))
}

// TestAdaptiveObsOffDifferential pins the adaptive counter to the
// atomic baseline: one handle's Next stream and its NextBlock blocks
// equal an AtomicCounter's, value for value.
func TestAdaptiveObsOffDifferential(t *testing.T) {
	t.Run("next/atomic", func(t *testing.T) {
		h := NewAdaptiveCounter().Handle(0).(*AdaptiveHandle)
		oracle := NewAtomicCounter()
		for i := 0; i < 500; i++ {
			if got, want := h.Next(), oracle.Next(); got != want {
				t.Fatalf("value %d: adaptive %d != oracle %d", i, got, want)
			}
		}
	})
	t.Run("block/atomic", func(t *testing.T) {
		h := NewAdaptiveCounter().Handle(0).(*AdaptiveHandle)
		oracle := NewAtomicCounter()
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

// TestAdaptiveUnserved: after one Next the rest of the prefetch block
// sits in the handle, and consumed ∪ unserved is gap-free.
func TestAdaptiveUnserved(t *testing.T) {
	h := NewAdaptiveCounter().Handle(0).(*AdaptiveHandle)
	vals := []int64{h.Next()}
	un := h.Unserved()
	if len(un) != adaptivePrefetch-1 {
		t.Fatalf("Unserved() has %d values, want %d", len(un), adaptivePrefetch-1)
	}
	assertExactRange(t, append(vals, un...))
}

// TestAdaptiveAllocFree pins the zero-allocation contract on the
// steady-state Next and NextBlock fast paths, obs off and on.
func TestAdaptiveAllocFree(t *testing.T) {
	for _, withObs := range []bool{false, true} {
		name := "obs=off"
		if withObs {
			name = "obs=on"
		}
		t.Run(name, func(t *testing.T) {
			c := NewAdaptiveCounter()
			if withObs {
				c.EnableObs("alloc", obs.NewRegistry())
			}
			h := c.Handle(0).(*AdaptiveHandle)
			if n := testing.AllocsPerRun(500, func() { h.Next() }); n != 0 {
				t.Errorf("Next: %v allocs/op", n)
			}
			dst := make([]int64, 32)
			if n := testing.AllocsPerRun(200, func() { h.NextBlock(dst) }); n != 0 {
				t.Errorf("NextBlock: %v allocs/op", n)
			}
		})
	}
}

// handleSink makes the handles TestAdaptiveHandleAllocatesOnce builds
// escape; a discarded handle is inlined onto the stack.
var handleSink Counter

// TestAdaptiveHandleAllocatesOnce: a handle is its own prefetch block
// and registers nothing with the counter, so making one that escapes
// costs exactly one allocation and per-operation handles leak nothing.
func TestAdaptiveHandleAllocatesOnce(t *testing.T) {
	c := NewAdaptiveCounter()
	if n := testing.AllocsPerRun(100, func() { handleSink = c.Handle(0) }); n != 1 {
		t.Fatalf("Handle: %v allocs/op, want 1", n)
	}
}

// TestAdaptiveObsSnapshot: the adaptive group reports ops, the values
// drawn from the word, prefetched ones included, and nothing else.
func TestAdaptiveObsSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewAdaptiveCounter()
	c.EnableObs("adapt", reg)
	h := c.Handle(0).(*AdaptiveHandle)
	for i := 0; i < 40; i++ {
		h.Next()
	}
	c.Next()
	s := reg.Snapshot()
	g := s.Group("adapt")
	if g == nil {
		t.Fatal("adapt group missing")
	}
	if g.Kind != "adaptive" {
		t.Fatalf("group kind = %q, want adaptive", g.Kind)
	}
	want := obs.Metric{Name: "ops", Value: 2*adaptivePrefetch + 1}
	if len(g.Counters) != 1 || g.Counters[0] != want {
		t.Fatalf("counters = %+v, want [%+v]", g.Counters, want)
	}
	if len(g.Hists) != 0 || len(g.Gates) != 0 || len(g.Layers) != 0 {
		t.Fatalf("adaptive group reports more than ops: %+v", g)
	}
}
