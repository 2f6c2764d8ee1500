package counter

import (
	"slices"
	"sync"
	"testing"

	"countnet/internal/core"
)

// TestCombiningCounterConcurrentNext: the headline guarantee — after
// quiescence the issued values are exactly 0..N-1 — under real
// concurrency with per-goroutine handles (collectConcurrent uses the
// Handled fast path).
func TestCombiningCounterConcurrentNext(t *testing.T) {
	c := NewCombiningCounter(testNetwork(t))
	vals := collectConcurrent(c, 8, 500)
	assertExactRange(t, vals)
}

// TestCombiningCounterConcurrentBlocks: block requests of mixed sizes
// from concurrent handles stay gap-free — the combiner must hand every
// waiter exactly its n values and never split or duplicate a range.
func TestCombiningCounterConcurrentBlocks(t *testing.T) {
	c := NewCombiningCounter(testNetwork(t))
	const workers, rounds = 8, 60
	out := make([][]int64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := c.Handle(g).(*CombiningHandle)
			block := make([]int64, 1+g%5) // sizes 1..5
			for r := 0; r < rounds; r++ {
				h.NextBlock(block)
				out[g] = append(out[g], block...)
			}
		}(g)
	}
	wg.Wait()
	var all []int64
	for _, vs := range out {
		all = append(all, vs...)
	}
	assertExactRange(t, all)
}

// TestCombiningCounterMixed: handle Next, handle NextBlock, direct
// Next, and direct NextBlock interleaved across goroutines still mint
// each value exactly once.
func TestCombiningCounterMixed(t *testing.T) {
	c := NewCombiningCounter(testNetwork(t))
	const workers, rounds = 6, 80
	out := make([][]int64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0: // handle, single values
				h := c.Handle(g)
				for r := 0; r < rounds; r++ {
					out[g] = append(out[g], h.Next())
				}
			case 1: // handle, blocks
				h := c.Handle(g).(*CombiningHandle)
				block := make([]int64, 3)
				for r := 0; r < rounds/3; r++ {
					h.NextBlock(block)
					out[g] = append(out[g], block...)
				}
			default: // no handle: direct combiner-lock path
				block := make([]int64, 2)
				for r := 0; r < rounds/2; r++ {
					c.NextBlock(block)
					out[g] = append(out[g], block...)
				}
			}
		}(g)
	}
	wg.Wait()
	var all []int64
	for _, vs := range out {
		all = append(all, vs...)
	}
	assertExactRange(t, all)
}

// TestCombiningCounterSequential: single-goroutine issuance through
// every entry point is a permutation of 0..N-1.
func TestCombiningCounterSequential(t *testing.T) {
	c := NewCombiningCounter(testNetwork(t))
	h := c.Handle(0).(*CombiningHandle)
	var vals []int64
	block := make([]int64, 7)
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			vals = append(vals, c.Next())
		case 1:
			vals = append(vals, h.Next())
		default:
			h.NextBlock(block)
			vals = append(vals, block...)
		}
	}
	assertExactRange(t, vals)
}

// TestCombiningCounterWider: a wider network with mixed balancer sizes.
func TestCombiningCounterWider(t *testing.T) {
	n, err := core.L(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCombiningCounter(n)
	vals := collectConcurrent(c, 5, 600)
	assertExactRange(t, vals)
}

func TestCombiningCounterWidth(t *testing.T) {
	c := NewCombiningCounter(testNetwork(t))
	if c.Width() != 8 {
		t.Errorf("width %d, want 8", c.Width())
	}
}

// TestCombiningCounterEmptyBlock: a zero-length block request returns
// immediately and mints nothing.
func TestCombiningCounterEmptyBlock(t *testing.T) {
	c := NewCombiningCounter(testNetwork(t))
	c.NextBlock(nil)
	h := c.Handle(0).(*CombiningHandle)
	h.NextBlock(nil)
	if v := c.Next(); v != 0 {
		t.Errorf("first value %d after empty blocks, want 0", v)
	}
}

// TestCombiningSplitRun: a direct NextRuns that finds a waiter pending
// serves the waiter first and takes the rest of the pass as runs, the
// first of them split where the waiter's block ended. Together they are
// exactly the values one NextBlock of the same total would mint, in
// the same order.
func TestCombiningSplitRun(t *testing.T) {
	c := NewCombiningCounter(testNetwork(t))
	w := int64(c.Width())
	h := c.Handle(0).(*CombiningHandle)
	for _, sizes := range [][2]int{{3, 5}, {1, 20}, {13, 2}, {8, 8}, {5, 100}} {
		// Publish the waiter's request by hand, as await would before
		// finding the combiner lock taken.
		buf := make([]int64, sizes[0])
		h.slot.n, h.slot.buf = int32(len(buf)), buf
		h.slot.state.Store(slotPending)
		runs := c.NextRuns(sizes[1], nil)
		if h.slot.state.Load() != slotDone {
			t.Fatalf("sizes %v: pending slot not served by the direct pass", sizes)
		}
		h.slot.state.Store(slotIdle)
		if int64(len(runs)) > w {
			t.Fatalf("sizes %v: %d runs, width %d", sizes, len(runs), w)
		}
		got := append([]int64(nil), buf...)
		for _, r := range runs {
			got = r.AppendValues(got, w)
		}

		ref := NewCombiningCounter(testNetwork(t))
		ref.NextBlock(make([]int64, c.issued()-int64(len(got))))
		want := make([]int64, len(got))
		ref.NextBlock(want)
		if !slices.Equal(got, want) {
			t.Fatalf("sizes %v: waiter %v + runs %v = %v, one NextBlock gives %v", sizes, buf, runs, got, want)
		}
	}
}

// TestCombiningRunsStress: handles drawing odd-sized blocks and direct
// NextRuns callers share one counter, so passes regularly hand a
// direct caller a run split after a waiter's block. At quiescence the
// union is exactly 0..N-1 (run under -race in CI).
func TestCombiningRunsStress(t *testing.T) {
	c := NewCombiningCounter(testNetwork(t))
	w := int64(c.Width())
	const handles, direct, rounds = 4, 2, 300
	out := make([][]int64, handles+direct)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g < handles {
				h := c.Handle(g).(*CombiningHandle)
				block := make([]int64, 2*g+1) // 1, 3, 5, 7
				for r := 0; r < rounds; r++ {
					h.NextBlock(block)
					out[g] = append(out[g], block...)
				}
				return
			}
			runs := make([]Run, 0, w)
			for r := 0; r < rounds; r++ {
				runs = c.NextRuns(5+6*(g-handles)+r%3, runs)
				if int64(len(runs)) > w {
					t.Errorf("%d runs, width %d", len(runs), w)
					return
				}
				for _, r := range runs {
					out[g] = r.AppendValues(out[g], w)
				}
			}
		}(g)
	}
	wg.Wait()
	var all []int64
	for _, vs := range out {
		all = append(all, vs...)
	}
	assertExactRange(t, all)
}

// TestNextRunsAllocFree: a lease as runs into a dst of capacity width
// allocates nothing once the counter's scratch is warm.
func TestNextRunsAllocFree(t *testing.T) {
	c := NewCombiningCounter(testNetwork(t))
	dst := make([]Run, 0, c.Width())
	dst = c.NextRuns(1024, dst)
	if a := testing.AllocsPerRun(100, func() { dst = c.NextRuns(1021, dst) }); a != 0 {
		t.Errorf("NextRuns allocated %.1f times per call, want 0", a)
	}
}
