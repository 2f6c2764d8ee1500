package counter

import (
	"math"
	"sort"
	"sync"
	"testing"

	"countnet/internal/core"
	"countnet/internal/network"
)

func testNetwork(t *testing.T) *network.Network {
	t.Helper()
	n, err := core.L(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// collectConcurrent runs workers goroutines, each drawing perWorker
// values (via a handle if available), and returns every issued value.
func collectConcurrent(c Counter, workers, perWorker int) []int64 {
	out := make([][]int64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := c
			if h, ok := c.(Handled); ok {
				local = h.Handle(g)
			}
			vals := make([]int64, perWorker)
			for i := range vals {
				vals[i] = local.Next()
			}
			out[g] = vals
		}(g)
	}
	wg.Wait()
	var all []int64
	for _, vs := range out {
		all = append(all, vs...)
	}
	return all
}

func assertExactRange(t *testing.T, vals []int64) {
	t.Helper()
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, v := range sorted {
		if v != int64(i) {
			t.Fatalf("values are not exactly 0..%d: position %d holds %d", len(vals)-1, i, v)
		}
	}
}

// TestNetworkCounterFetchIncrement: the headline guarantee — after
// quiescence the issued values are exactly 0..N-1 — under real
// concurrency, for both balancer implementations.
func TestNetworkCounterFetchIncrement(t *testing.T) {
	for _, mutex := range []bool{false, true} {
		c := NewNetworkCounter(testNetwork(t), mutex)
		vals := collectConcurrent(c, 8, 500)
		assertExactRange(t, vals)
	}
}

// TestNetworkCounterSequential: single-goroutine issuance is gap-free
// at every prefix length that is a multiple of nothing in particular —
// values must still be a permutation of 0..N-1.
func TestNetworkCounterSequential(t *testing.T) {
	c := NewNetworkCounter(testNetwork(t), false)
	var vals []int64
	for i := 0; i < 777; i++ {
		vals = append(vals, c.Next())
	}
	assertExactRange(t, vals)
}

// TestNetworkCounterSharedNext: Next (shared dispatcher) is safe and
// gap-free too.
func TestNetworkCounterSharedNext(t *testing.T) {
	c := NewNetworkCounter(testNetwork(t), false)
	var wg sync.WaitGroup
	out := make([][]int64, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([]int64, 300)
			for i := range vals {
				vals[i] = c.Next() // deliberately not using handles
			}
			out[g] = vals
		}(g)
	}
	wg.Wait()
	var all []int64
	for _, vs := range out {
		all = append(all, vs...)
	}
	assertExactRange(t, all)
}

func TestNetworkCounterWidth(t *testing.T) {
	c := NewNetworkCounter(testNetwork(t), false)
	if c.Width() != 8 {
		t.Errorf("width %d, want 8", c.Width())
	}
}

func TestHandleNegativeID(t *testing.T) {
	six, err := core.L(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		net *network.Network
		id  int
	}{
		{testNetwork(t), -3},
		// -MinInt overflows back to MinInt, and MinInt % 6 is negative.
		{six, math.MinInt},
	} {
		c := NewNetworkCounter(tc.net, false)
		h := c.Handle(tc.id)
		if v := h.Next(); v < 0 {
			t.Errorf("width %d, id %d: negative value %d", c.Width(), tc.id, v)
		}
	}
}

func TestAtomicCounter(t *testing.T) {
	c := NewAtomicCounter()
	vals := collectConcurrent(c, 8, 1000)
	assertExactRange(t, vals)
}

func TestMutexCounter(t *testing.T) {
	c := NewMutexCounter()
	vals := collectConcurrent(c, 8, 1000)
	assertExactRange(t, vals)
}

// TestCountersOnWiderNetwork: a wider L network with mixed balancer
// sizes still yields a correct counter.
func TestCountersOnWiderNetwork(t *testing.T) {
	n, err := core.L(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := NewNetworkCounter(n, false)
	vals := collectConcurrent(c, 5, 600)
	assertExactRange(t, vals)
}

// TestCounterOnBalancerOnly: a single balancer is a width-p counting
// network; its counter must behave.
func TestCounterOnBalancerOnly(t *testing.T) {
	n, err := core.K(6)
	if err != nil {
		t.Fatal(err)
	}
	c := NewNetworkCounter(n, false)
	vals := collectConcurrent(c, 4, 300)
	assertExactRange(t, vals)
}

// TestHandleBypassesSharedDispatch pins the documented contract that
// Handle is the fast path: drawing values through a handle must not
// touch the counter's shared entry-dispatch word, while direct Next
// calls pay one fetch-and-add on it per value.
func TestHandleBypassesSharedDispatch(t *testing.T) {
	c := NewNetworkCounter(testNetwork(t), false)
	h := c.Handle(1)
	var vals []int64
	for i := 0; i < 100; i++ {
		vals = append(vals, h.Next())
	}
	if got := c.entry.Load(); got != 0 {
		t.Errorf("handle Next moved the shared dispatch word to %d, want 0", got)
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, c.Next())
	}
	if got := c.entry.Load(); got != 10 {
		t.Errorf("shared dispatch word at %d after 10 direct Nexts, want 10", got)
	}
	assertExactRange(t, vals)
}
