package counter

import (
	"fmt"
	"sync"

	"countnet/internal/network"
)

// Barrier is a reusable n-party synchronization barrier driven by a
// counting-network counter — the classic barrier application counting
// networks were proposed for: every arrival takes a ticket, so the
// arrival contention spreads over the network's balancers instead of
// one hot spot.
//
// Generation membership is decided by arrival order under the lock,
// not by the ticket value. Counting networks are not linearizable: a
// token entering the network later can exit with a smaller value, so
// under reuse a party re-arriving for generation g+1 can draw a ticket
// belonging to generation g. Releasing on "ticket == boundary-1" then
// deadlocks, because the generation-closing ticket can rest with a
// party that never arrives again; the schedule-exploration test
// TestTicketGenerationRefuted (barrier_sched_test.go in this package)
// replays a minimal such interleaving against this very barrier. The
// tickets still spread contention, and at quiescence they must be
// exactly 0..arrivals-1, which Quiesce checks.
type Barrier struct {
	n   int64
	ctr *NetworkCounter

	mu        sync.Mutex
	cond      *sync.Cond
	arrivals  int64 // total arrivals that have taken a ticket
	done      int64 // arrivals of the highest fully-released generation
	maxTicket int64 // largest ticket seen
	closed    bool
}

// NewBarrier builds a barrier for n parties whose arrival tickets come
// from a fresh counter over the counting network net.
func NewBarrier(n int, net *network.Network) *Barrier {
	if n < 1 {
		panic("counter: barrier size < 1")
	}
	b := &Barrier{n: int64(n), ctr: NewNetworkCounter(net, false), maxTicket: -1}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Parties returns the number of parties per generation.
func (b *Barrier) Parties() int { return int(b.n) }

// Await blocks until n parties (including the caller) have arrived in
// the caller's generation, and returns the caller's generation number
// (0-based), or an error if Close released the caller first. Reusable
// across generations. Arrival tickets come from the barrier's shared
// counter; parties calling Await in a loop should hold a Handle
// instead, so ticket draws skip the counter's shared entry dispatcher.
func (b *Barrier) Await() (int64, error) {
	return b.await(b.ctr.Next())
}

// Handle returns a single-goroutine view of the barrier whose arrival
// tickets are drawn through a private counter handle; id disperses the
// handles' entry wires. Handles must not be shared between goroutines.
func (b *Barrier) Handle(id int) *BarrierHandle {
	return &BarrierHandle{b: b, ctr: b.ctr.Handle(id)}
}

// BarrierHandle is a single-goroutine view of a Barrier.
type BarrierHandle struct {
	b   *Barrier
	ctr Counter
}

// Await is Barrier.Await drawing the arrival ticket from the handle's
// private counter view.
func (h *BarrierHandle) Await() (int64, error) {
	return h.b.await(h.ctr.Next())
}

// AwaitHooked is Await with schedule instrumentation for package
// sched: the arrival ticket traverses the counting network entering on
// the given wire with yield before every atomic step, and the release
// wait parks in block instead of the condition variable. It shares
// arrive and b.mu with Await, so exploration runs the shipped release
// rule, not a model of it.
func (b *Barrier) AwaitHooked(wire int, yield func(op string), block func(op string, ready func() bool)) int64 {
	t := b.ctr.NextOnHooked(wire, yield)
	yield("barrier gate")
	b.mu.Lock()
	gen, boundary := b.arrive(t)
	b.mu.Unlock()
	if boundary == 0 {
		return gen
	}
	block("barrier wait", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.done >= boundary
	})
	return gen
}

// await completes an arrival holding ticket t.
func (b *Barrier) await(t int64) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen, boundary := b.arrive(t)
	for b.done < boundary && !b.closed {
		b.cond.Wait()
	}
	if b.done < boundary {
		return gen, fmt.Errorf("counter: barrier closed with %d of %d arrivals", b.arrivals%b.n, b.n)
	}
	return gen, nil
}

// arrive records one ticketed arrival under b.mu and returns the
// caller's generation. A zero boundary means the caller completed its
// generation and released it; otherwise the caller must wait for
// b.done to reach the boundary.
func (b *Barrier) arrive(t int64) (gen, boundary int64) {
	if t > b.maxTicket {
		b.maxTicket = t
	}
	b.arrivals++
	gen = (b.arrivals - 1) / b.n
	if b.arrivals%b.n == 0 {
		if b.arrivals > b.done {
			b.done = b.arrivals
		}
		b.cond.Broadcast()
		return gen, 0
	}
	return gen, (gen + 1) * b.n
}

// Quiesce verifies the arrival tickets at rest: with every arrival
// returned, the network must have issued exactly 0..arrivals-1 (the
// counting contract). A ticket drawn outside Await shows up as a gap.
func (b *Barrier) Quiesce() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.maxTicket != b.arrivals-1 {
		return fmt.Errorf("tickets not gap-free at quiescence: %d arrivals but max ticket %d", b.arrivals, b.maxTicket)
	}
	return nil
}

// Close releases every waiter with an error; a later arrival that does
// not complete its generation fails the same way.
func (b *Barrier) Close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
