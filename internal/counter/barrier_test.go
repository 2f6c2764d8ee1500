package counter

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"countnet/internal/core"
	"countnet/internal/network"
)

func barrierNet(t *testing.T) *network.Network {
	t.Helper()
	n, err := core.L(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// mustAwait is Await for callers that never Close the barrier.
func mustAwait(t *testing.T, await func() (int64, error)) int64 {
	gen, err := await()
	if err != nil {
		t.Error(err)
	}
	return gen
}

// TestBarrierPhases: no party enters phase k+1 before every party
// finished phase k — the barrier contract — across many generations.
func TestBarrierPhases(t *testing.T) {
	const parties, generations = 6, 40
	b := NewBarrier(parties, barrierNet(t))
	var phaseCount [generations]atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				phaseCount[g].Add(1)
				gen := mustAwait(t, b.Await)
				if gen != int64(g) {
					t.Errorf("party saw generation %d in phase %d", gen, g)
					return
				}
				// After the barrier, every party must have entered
				// this phase.
				if got := phaseCount[g].Load(); got != parties {
					t.Errorf("phase %d released with %d/%d arrivals", g, got, parties)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBarrierBlocksUntilFull: early arrivals park.
func TestBarrierBlocksUntilFull(t *testing.T) {
	b := NewBarrier(3, barrierNet(t))
	released := make(chan int64, 3)
	for i := 0; i < 2; i++ {
		go func() { released <- mustAwait(t, b.Await) }()
	}
	select {
	case g := <-released:
		t.Fatalf("released generation %d with 2/3 arrivals", g)
	case <-time.After(20 * time.Millisecond):
	}
	go func() { released <- mustAwait(t, b.Await) }()
	for i := 0; i < 3; i++ {
		select {
		case g := <-released:
			if g != 0 {
				t.Fatalf("generation %d, want 0", g)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("barrier never released")
		}
	}
}

// TestBarrierSingleParty: degenerate n=1 never blocks.
func TestBarrierSingleParty(t *testing.T) {
	b := NewBarrier(1, barrierNet(t))
	for g := int64(0); g < 5; g++ {
		if got := mustAwait(t, b.Await); got != g {
			t.Fatalf("generation %d, want %d", got, g)
		}
	}
}

func TestBarrierRejectsBadSize(t *testing.T) {
	net := barrierNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(0, net)
}

// TestBarrierHandles: the phases contract holds when every party draws
// arrival tickets through a private barrier handle, and handles unwrap
// to counter handles.
func TestBarrierHandles(t *testing.T) {
	const parties, generations = 5, 30
	b := NewBarrier(parties, barrierNet(t))
	var phaseCount [generations]atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := b.Handle(p)
			for g := 0; g < generations; g++ {
				phaseCount[g].Add(1)
				gen := mustAwait(t, h.Await)
				if gen != int64(g) {
					t.Errorf("party saw generation %d in phase %d", gen, g)
					return
				}
				if got := phaseCount[g].Load(); got != parties {
					t.Errorf("phase %d released with %d/%d arrivals", g, got, parties)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// TestBarrierQuiesceDetectsTicketGap: at quiescence the arrival
// tickets must be exactly 0..arrivals-1. A clean generation passes; a
// ticket drawn from the barrier's counter outside Await leaves one
// more ticket than arrivals, and Quiesce must say so.
func TestBarrierQuiesceDetectsTicketGap(t *testing.T) {
	const parties = 3
	for _, seedGap := range []bool{false, true} {
		b := NewBarrier(parties, barrierNet(t))
		if seedGap {
			b.ctr.Next()
		}
		var wg sync.WaitGroup
		for p := 0; p < parties; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mustAwait(t, b.Await)
			}()
		}
		wg.Wait()
		err := b.Quiesce()
		switch {
		case !seedGap && err != nil:
			t.Errorf("clean generation: %v", err)
		case seedGap && (err == nil || !strings.Contains(err.Error(), "not gap-free")):
			t.Errorf("ticket drawn outside Await: Quiesce = %v, want a gap-free violation", err)
		}
	}
}
