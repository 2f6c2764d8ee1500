package counter

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"countnet/internal/network"
	"countnet/internal/obs"
	"countnet/internal/runner"
)

// CombiningCounter is a Fetch&Increment counter that flat-combines over
// a counting network: instead of every goroutine shepherding its own
// token through the balancers (one contended RMW per gate per token),
// goroutines publish requests to padded per-handle slots and whichever
// of them holds the combiner lock drains all pending requests, pushes
// them through the network as ONE batch (runner.TraverseBatch — a
// single fetch-and-add per touched gate), claims a value range from
// each exit wire's local counter with one Add(k), and distributes the
// claimed blocks back to the waiters. Under contention the per-token
// cost drops from O(depth) contended RMWs to an amortized O(gates /
// batch) uncontended ones.
//
// The combined batch is one legal execution of its tokens (see the
// batching argument in runner/batch.go), so the counter keeps the
// NetworkCounter contract: values are distinct always, and exactly
// 0..N-1 once quiescent — whether requests arrive one value at a time
// (Next) or in blocks (NextBlock).
type CombiningCounter struct {
	async   *runner.Async
	width   int64
	locals  []padded
	slots   atomic.Pointer[[]*combineSlot] // registered handles, copy-on-write
	regMu   sync.Mutex                     // guards slot registration
	combine sync.Mutex                     // combiner lock; guards the fields below
	cursor  int                            // next entry wire for round-robin injection
	entry   []int64                        // scratch: per-wire entry counts
	exits   []int64                        // scratch: per-position exit counts
	scratch *runner.BatchScratch
	pending []*combineSlot // scratch: slots drained this pass
	vals    []int64        // scratch: values minted this pass

	// watch is the observability hook, nil unless EnableObs was called;
	// the combine pass and the handle spin loop pay one nil-check each
	// when disabled.
	watch *obs.CombineObs

	// hookHeld is the cooperative combiner lock for controlled runs:
	// hooked passes cannot take c.combine across yield points (a sched
	// ready() predicate must be side-effect free, so TryLock is out),
	// so they park on this flag via Yield.Block instead. Never mixed
	// with the production lock within one controlled run.
	hookHeld bool
}

// slot states. Only the owning handle moves idle->pending and
// done->idle; only a combiner holding the lock moves pending->done.
const (
	slotIdle int32 = iota
	slotPending
	slotDone
)

// combineSlot is one handle's request mailbox, padded so no two slots
// (nor a slot and its neighbours' traffic) share a cache line. The
// owner fills buf and n, publishes with state; the combiner writes n
// values into buf before flipping state to done.
//
//netvet:padalign 128
type combineSlot struct {
	state atomic.Int32
	n     int32   // values requested
	buf   []int64 // owner-provided destination, len >= n
	one   [1]int64
	_     [128 - 40]byte
}

// NewCombiningCounter builds a combining counter over the given
// counting network.
func NewCombiningCounter(net *network.Network) *CombiningCounter {
	a := runner.Compile(net)
	c := &CombiningCounter{
		async:   a,
		width:   int64(net.Width()),
		locals:  make([]padded, net.Width()),
		entry:   make([]int64, net.Width()),
		exits:   make([]int64, net.Width()),
		scratch: a.NewBatchScratch(),
	}
	empty := []*combineSlot{}
	c.slots.Store(&empty)
	return c
}

// Width returns the width of the underlying network.
func (c *CombiningCounter) Width() int { return int(c.width) }

// EnableObs attaches observability under the given group name and
// registers it with r (obs.Default when nil). Idempotent; call before
// the counter sees concurrent traffic. When enabled, each combine pass
// records its queue depth, values served and latency, handles count
// their spin retries, and the underlying network records batch sizes;
// per-gate token counts are read from the balancers themselves.
func (c *CombiningCounter) EnableObs(name string, r *obs.Registry) *obs.CombineObs {
	if c.watch == nil {
		c.watch = obs.NewCombineObs(name, c.async.EnableObs(name))
	}
	if r == nil {
		r = obs.Default
	}
	r.Register(name, c.watch)
	return c.watch
}

// Next issues one value. Prefer Handle in concurrent loops: a direct
// Next always blocks on the combiner lock, while handles publish their
// request and let whichever goroutine holds the lock serve it.
func (c *CombiningCounter) Next() int64 {
	var one [1]int64
	c.NextBlock(one[:])
	return one[0]
}

// NextBlock fills dst with len(dst) fresh values in one combined pass.
func (c *CombiningCounter) NextBlock(dst []int64) {
	if len(dst) == 0 {
		return
	}
	c.combine.Lock()
	c.combineLocked(dst)
	c.combine.Unlock()
}

// Handle returns a goroutine-local view backed by a freshly registered
// combining slot. Handles must not be shared between goroutines; id is
// accepted for symmetry with NetworkCounter.Handle and does not affect
// behaviour. Each call permanently registers one slot, so create one
// handle per worker, not one per operation.
func (c *CombiningCounter) Handle(id int) Counter {
	s := &combineSlot{}
	c.regMu.Lock()
	old := *c.slots.Load()
	next := make([]*combineSlot, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	c.slots.Store(&next)
	c.regMu.Unlock()
	return &CombiningHandle{c: c, slot: s}
}

// CombiningHandle is a single-goroutine view of a CombiningCounter.
type CombiningHandle struct {
	c    *CombiningCounter
	slot *combineSlot
}

// Next issues one value.
//
//netvet:hotpath
func (h *CombiningHandle) Next() int64 {
	s := h.slot
	s.n = 1
	s.buf = s.one[:]
	h.await()
	return s.one[0]
}

// NextBlock fills dst with len(dst) fresh values. The whole block is
// claimed by one combined pass, amortizing the network traversal over
// every value the pass serves.
//
//netvet:hotpath
func (h *CombiningHandle) NextBlock(dst []int64) {
	if len(dst) == 0 {
		return
	}
	s := h.slot
	s.n = int32(len(dst))
	s.buf = dst
	h.await()
}

// await publishes the prepared request and blocks until it is served —
// by this goroutine becoming the combiner, or by another combiner
// draining the slot.
//
//netvet:hotpath
func (h *CombiningHandle) await() {
	s, c := h.slot, h.c
	o := c.watch
	s.state.Store(slotPending)
	for {
		if c.combine.TryLock() {
			// We are the combiner. combineLocked serves every pending
			// slot it finds; ours is pending (or was just served by the
			// previous combiner, in which case it is done and skipped).
			if s.state.Load() == slotPending {
				c.combineLocked(nil)
			}
			c.combine.Unlock()
		}
		if s.state.Load() == slotDone {
			s.state.Store(slotIdle)
			return
		}
		// Another combiner holds the lock but had already collected its
		// batch before our publish. Yield and retry.
		if o != nil {
			o.SpinRetries.Inc()
		}
		// Production-only spin; controlled runs use the hooked paths,
		// which park via Yield.Block instead of spinning.
		//netvet:allow gosched
		runtime.Gosched()
	}
}

// NextBlockHooked fills dst with len(dst) fresh values under schedule
// instrumentation: the combiner lock becomes a cooperative flag parked
// on via block, and the batch traversal and per-exit claims yield
// before every shared atomic step. Hooked passes serve only their own
// request (no slot draining — controlled runs drive each goroutine's
// demand directly), which is still one legal execution of the batch.
// For package sched; do not mix with unhooked calls in a controlled
// run.
func (c *CombiningCounter) NextBlockHooked(dst []int64, yield func(op string), block func(op string, ready func() bool)) {
	if len(dst) == 0 {
		return
	}
	block("combine lock", func() bool { return !c.hookHeld })
	c.hookHeld = true
	c.inject(int64(len(dst)))
	// Token conservation fills dst exactly, so mint never reallocates.
	c.mint(dst[:0], c.async.TraverseBatchHooked(c.entry, yield), yield)
	c.hookHeld = false
}

// inject spreads total tokens over the entry wires round-robin from
// the cursor, into c.entry. The counting property holds for any
// distribution of tokens over input wires, so the cursor only spreads
// load, it does not affect correctness. Caller must hold the combiner
// lock (or hookHeld).
//
//netvet:hotpath
func (c *CombiningCounter) inject(total int64) {
	w := int(c.width)
	for i := range c.entry {
		c.entry[i] = 0
	}
	n, q := c.cursor, total
	if q >= int64(w) {
		for i := range c.entry {
			c.entry[i] += q / int64(w)
		}
		q %= int64(w)
	}
	for ; q > 0; q-- {
		c.entry[n]++
		n++
		if n == w {
			n = 0
		}
	}
	c.cursor = n
}

// mint claims one value range per touched exit position (exits[pos]
// tokens left there) with one fetch-and-add on its local counter, and
// appends the minted values to vals. A non-nil yield runs before each
// claim.
//
//netvet:hotpath
func (c *CombiningCounter) mint(vals, exits []int64, yield func(op string)) []int64 {
	for pos, k := range exits {
		if k == 0 {
			continue
		}
		if yield != nil {
			//netvet:allow hotpath escape -- sched-hooked lane only; production callers pass a nil yield
			yield(fmt.Sprintf("local claim %d", pos))
		}
		base := c.locals[pos].v.Add(k) - k
		for m := int64(0); m < k; m++ {
			//netvet:allow append -- grows into the caller's scratch backing; amortized to zero once pass sizes stabilize
			vals = append(vals, (base+m)*c.width+int64(pos))
		}
	}
	return vals
}

// issued returns the number of values handed out (see
// NetworkCounter.issued), exact at quiescence.
func (c *CombiningCounter) issued() int64 {
	var n int64
	for i := range c.locals {
		n += c.locals[i].v.Load()
	}
	return n
}

// combineLocked drains every pending slot plus the combiner's own
// direct request (extra, nil for handle-driven passes), pushes the
// whole demand through the network as one batch, and distributes the
// minted values. Caller must hold c.combine.
//
//netvet:hotpath
func (c *CombiningCounter) combineLocked(extra []int64) {
	// Observability is woven into this body (Traverse instead reads the
	// clock around its walk) because a pass already amortizes a whole
	// batch traversal: the nil-checks below are noise next to the work
	// they guard.
	o := c.watch
	var start int64
	if o != nil {
		start = obs.Now()
	}
	pend := c.pending[:0]
	total := int64(len(extra))
	for _, s := range *c.slots.Load() {
		if s.state.Load() == slotPending {
			//netvet:allow append -- grows into c.pending's scratch backing; amortized to zero once the slot set stabilizes
			pend = append(pend, s)
			total += int64(s.n)
		}
	}
	if total == 0 {
		c.pending = pend
		return
	}
	var region *obs.TraceRegion
	if o != nil {
		o.Passes.Inc()
		o.PassQueue.Observe(int64(len(pend)))
		o.PassServed.Observe(total)
		// The region and clock close explicitly at the bottom of the
		// pass (control flow past this point is straight-line), so the
		// sample covers the full pass without a defer on the hot path.
		//netvet:allow escape -- context.Background's zero-size boxing at trace.StartRegion; no runtime allocation (BenchmarkObsOverhead alloc guard)
		region = obs.Region("countnet.combine-pass")
	}
	c.inject(total)
	c.async.TraverseBatchInto(c.exits, c.entry, c.scratch)
	vals := c.mint(c.vals[:0], c.exits, nil)
	// Token conservation guarantees len(vals) == total. Hand each
	// waiter its block, then the direct request takes the rest.
	i := 0
	for _, s := range pend {
		i += copy(s.buf[:s.n], vals[i:])
		s.buf = nil // release the waiter's buffer before waking it
		s.state.Store(slotDone)
	}
	copy(extra, vals[i:])
	c.pending = pend[:0]
	c.vals = vals[:0]
	if o != nil {
		region.End()
		// The clock reads here, start bound at entry: the sample covers
		// the full pass. The region bracketed the same span for traces.
		o.PassNs.ObserveSince(start)
	}
}
