package pool

import (
	"sync"
	"testing"
	"time"

	"countnet/internal/core"
	"countnet/internal/network"
	"countnet/internal/obs"
)

func testNet(t *testing.T) *network.Network {
	t.Helper()
	n, err := core.L(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPoolExactlyOnce: every item put is got exactly once, under full
// producer/consumer concurrency.
func TestPoolExactlyOnce(t *testing.T) {
	p := New[int](testNet(t))
	const producers, consumers, perProducer = 4, 4, 2000
	total := producers * perProducer

	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := p.Handle(g)
			for i := 0; i < perProducer; i++ {
				h.Put(g*perProducer + i)
			}
		}(g)
	}
	got := make([][]int, consumers)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := p.Handle(producers + c)
			for i := 0; i < total/consumers; i++ {
				got[c] = append(got[c], h.Get())
			}
		}(c)
	}
	wg.Wait()

	seen := make([]bool, total)
	for _, vs := range got {
		for _, v := range vs {
			if v < 0 || v >= total {
				t.Fatalf("unknown item %d", v)
			}
			if seen[v] {
				t.Fatalf("item %d delivered twice", v)
			}
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("item %d lost", v)
		}
	}
	if p.Len() != 0 {
		t.Errorf("pool should be empty, Len = %d", p.Len())
	}
}

// TestPoolGetBlocksUntilPut: a Get issued first parks until an item
// arrives.
func TestPoolGetBlocksUntilPut(t *testing.T) {
	p := New[string](testNet(t))
	done := make(chan string)
	go func() {
		done <- p.Get()
	}()
	select {
	case v := <-done:
		t.Fatalf("Get returned %q before any Put", v)
	case <-time.After(20 * time.Millisecond):
	}
	p.Put("hello")
	select {
	case v := <-done:
		if v != "hello" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never woke up")
	}
}

// TestPoolSequential: single-threaded FIFO-ish behaviour sanity (the
// pool is unordered, but with one producer and one consumer using the
// shared dispatchers, buffers and ranks align and items round-trip).
func TestPoolSequential(t *testing.T) {
	p := New[int](testNet(t))
	for i := 0; i < 100; i++ {
		p.Put(i)
	}
	if p.Len() != 100 {
		t.Fatalf("Len = %d", p.Len())
	}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		v := p.Get()
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 100 || p.Len() != 0 {
		t.Fatalf("round trip incomplete: %d items, Len %d", len(seen), p.Len())
	}
}

// TestPoolManyMoreGettersQueued: several blocked getters all wake as
// puts trickle in.
func TestPoolManyMoreGettersQueued(t *testing.T) {
	p := New[int](testNet(t))
	const n = 32
	results := make(chan int, n)
	for c := 0; c < n; c++ {
		go func(c int) {
			h := p.Handle(c)
			results <- h.Get()
		}(c)
	}
	time.Sleep(10 * time.Millisecond)
	h := p.Handle(99)
	for i := 0; i < n; i++ {
		h.Put(i)
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		select {
		case v := <-results:
			if seen[v] {
				t.Fatalf("duplicate %d", v)
			}
			seen[v] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d getters woke", i, n)
		}
	}
}

// TestPoolObsReadsCounters: the pool group's puts and gets are the ops
// of its put and get counter groups, read from the counters' own
// state, so they include traffic from before EnableObs and agree with
// the groups after any mix of handle and shared operations.
func TestPoolObsReadsCounters(t *testing.T) {
	p := New[int](testNet(t))
	p.Put(-1)
	reg := obs.NewRegistry()
	p.EnableObs("pool", reg)
	const n = 300
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := p.Handle(g)
			for i := 0; i < n; i++ {
				h.Put(i)
				if i%3 != 0 {
					h.Get()
				}
			}
		}(g)
	}
	wg.Wait()
	p.Get()
	s := reg.Snapshot()
	counter := func(group, name string) int64 {
		t.Helper()
		g := s.Group(group)
		if g == nil {
			t.Fatalf("no group %q", group)
		}
		for _, m := range g.Counters {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("group %q has no %q", group, name)
		return 0
	}
	puts, gets := counter("pool", "puts"), counter("pool", "gets")
	if puts != 1+3*n || gets != 1+3*(n-n/3) {
		t.Errorf("puts, gets = %d, %d; want %d, %d", puts, gets, 1+3*n, 1+3*(n-n/3))
	}
	if op := counter("pool.put", "ops"); op != puts {
		t.Errorf("puts = %d but pool.put ops = %d", puts, op)
	}
	if og := counter("pool.get", "ops"); og != gets {
		t.Errorf("gets = %d but pool.get ops = %d", gets, og)
	}
}
