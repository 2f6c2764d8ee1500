// Package pool implements the classic shared-pool application of
// counting networks: a concurrent producer/consumer structure in which
// a "put" counting network spreads insertions over w buffers and a
// "get" counting network spreads removals the same way. Because both
// counters are gap-free at quiescence, the k-th removal overall is
// matched with the k-th insertion into the same buffer slot — every
// item is delivered exactly once, and contention splits across w
// buffer locks plus the networks' balancers instead of one central
// lock.
//
// The paper's Fetch&Increment counters are exactly the coordination
// primitive this uses; the pool is the end-to-end system a downstream
// user would build with them.
package pool

// The concurrent paths in this package are explored by the
// internal/sched harness; executions must replay deterministically
// from a recorded schedule (see docs/TESTING.md).
//
//netvet:sched-instrumented

import (
	"fmt"
	"sync"

	"countnet/internal/counter"
	"countnet/internal/network"
	"countnet/internal/obs"
)

// Pool is an unordered concurrent collection: items Put concurrently
// are each returned by exactly one Get. Get blocks until an item is
// available.
type Pool[T any] struct {
	width int
	put   *counter.NetworkCounter
	get   *counter.NetworkCounter
	bufs  []buffer[T]

	// watch is the observability hook, nil unless EnableObs was
	// called; only a Get that has to wait reads it.
	watch *obs.PoolObs
}

type buffer[T any] struct {
	_  [64]byte
	mu sync.Mutex
	cv *sync.Cond
	// items[k] holds the k-th item assigned to this buffer; a slice
	// keeps the rank matching exact (a queue per buffer). taken counts
	// consumed slots (consumption can happen out of rank order when a
	// high-rank getter is scheduled before a low-rank one).
	items []T
	taken int
}

// New builds a pool over the given counting network (its width sets the
// number of buffers). Two independent counters are compiled from the
// same network structure.
func New[T any](net *network.Network) *Pool[T] {
	p := &Pool[T]{
		width: net.Width(),
		put:   counter.NewNetworkCounter(net, false),
		get:   counter.NewNetworkCounter(net, false),
		bufs:  make([]buffer[T], net.Width()),
	}
	for i := range p.bufs {
		p.bufs[i].cv = sync.NewCond(&p.bufs[i].mu)
	}
	return p
}

// EnableObs attaches observability under the given group name and
// registers it with r (obs.Default when nil): one "<name>" pool group
// (puts, gets, get waits) plus "<name>.put" / "<name>.get" counter
// groups exposing the two underlying networks gate by gate. Puts and
// gets are those groups' ops, the values each counter has issued.
// Idempotent; call before the pool sees concurrent traffic.
func (p *Pool[T]) EnableObs(name string, r *obs.Registry) *obs.PoolObs {
	puts := p.put.EnableObs(name+".put", r)
	gets := p.get.EnableObs(name+".get", r)
	if p.watch == nil {
		p.watch = obs.NewPoolObs(name, puts.OpsFn, gets.OpsFn)
	}
	if r == nil {
		r = obs.Default
	}
	r.Register(name, p.watch)
	return p.watch
}

// Handle returns a goroutine-local view with private entry cursors for
// both underlying networks. Handles must not be shared.
func (p *Pool[T]) Handle(id int) *Handle[T] {
	return &Handle[T]{
		pool: p,
		put:  p.put.Handle(id),
		get:  p.get.Handle(id),
	}
}

// Handle is a single-goroutine view of a Pool.
type Handle[T any] struct {
	pool *Pool[T]
	put  counter.Counter
	get  counter.Counter
}

// Put inserts an item.
//
//netvet:hotpath
func (h *Handle[T]) Put(item T) {
	v := h.put.Next()
	h.pool.putAt(v, item)
}

// Get removes and returns an item, blocking until one is available.
//
//netvet:hotpath
func (h *Handle[T]) Get() T {
	v := h.get.Next()
	return h.pool.getAt(v)
}

// Put inserts an item via the pool's shared dispatcher (fine outside
// tight loops).
func (p *Pool[T]) Put(item T) { p.putAt(p.put.Next(), item) }

// Get removes an item via the shared dispatcher, blocking until one is
// available.
func (p *Pool[T]) Get() T { return p.getAt(p.get.Next()) }

//netvet:hotpath
func (p *Pool[T]) putAt(v int64, item T) {
	b := &p.bufs[v%int64(p.width)]
	b.mu.Lock()
	//netvet:allow append -- per-buffer queue grows with outstanding items by design; rank matching needs the whole history
	b.items = append(b.items, item)
	b.mu.Unlock()
	b.cv.Broadcast()
}

//netvet:hotpath
func (p *Pool[T]) getAt(v int64) T {
	b := &p.bufs[v%int64(p.width)]
	rank := int(v / int64(p.width)) // this consumer takes the rank-th item of the buffer
	b.mu.Lock()
	for len(b.items) <= rank {
		if o := p.watch; o != nil {
			o.GetWaits.Inc() // counts each park, so futile wakeups show
		}
		b.cv.Wait()
	}
	item := b.items[rank]
	var zero T
	b.items[rank] = zero // release for GC; slots are single-consumer
	b.taken++
	b.mu.Unlock()
	return item
}

// PutHooked is Put with schedule instrumentation: yield runs before
// every atomic step (counter-network accesses and the buffer append).
// For package sched; do not mix with unhooked calls in one controlled
// run.
func (p *Pool[T]) PutHooked(item T, yield func(op string)) {
	v := p.put.NextHooked(yield)
	yield(fmt.Sprintf("append buf %d", v%int64(p.width)))
	p.putAt(v, item)
}

// GetHooked is Get with schedule instrumentation. Instead of blocking
// on the buffer's condition variable it parks through block: the
// controlled scheduler re-evaluates the readiness predicate (under the
// buffer lock) whenever it needs a runnable task, so a schedule in
// which the item never arrives is reported as a deadlock rather than a
// hang.
func (p *Pool[T]) GetHooked(yield func(op string), block func(op string, ready func() bool)) T {
	v := p.get.NextHooked(yield)
	b := &p.bufs[v%int64(p.width)]
	rank := int(v / int64(p.width))
	block(fmt.Sprintf("take buf %d rank %d", v%int64(p.width), rank), func() bool {
		b.mu.Lock()
		ok := len(b.items) > rank
		b.mu.Unlock()
		return ok
	})
	return p.getAt(v)
}

// Len reports the number of items currently buffered and unconsumed
// (a snapshot under concurrency; exact at quiescence).
func (p *Pool[T]) Len() int {
	n := 0
	for i := range p.bufs {
		b := &p.bufs[i]
		b.mu.Lock()
		n += len(b.items) - b.taken
		b.mu.Unlock()
	}
	return n
}
