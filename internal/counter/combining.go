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
	runs    []Run          // scratch: runs minted this pass, at most one per exit wire

	// watch is the observability hook, nil unless EnableObs was called;
	// the combine pass and the handle spin loop pay one nil-check each
	// when disabled.
	watch *obs.CombineObs
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
		runs:    make([]Run, 0, net.Width()),
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
// their spin retries, and per-gate token counts are read from the
// balancers themselves; the batch traversal itself records nothing.
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
	c.expand(dst, c.combineLocked(len(dst), nil), 0, 0)
	c.combine.Unlock()
}

// NextRuns leases n fresh values in one combined pass without
// expanding them: it returns them as runs in dst's storage (dst[:0]
// grown as needed), at most one run per exit wire, so never more than
// Width runs. Expanding the runs in order yields the values NextBlock
// would have written for the same pass.
func (c *CombiningCounter) NextRuns(n int, dst []Run) []Run {
	dst = dst[:0]
	if n <= 0 {
		return dst
	}
	c.combine.Lock()
	dst = append(dst, c.combineLocked(n, nil)...)
	c.combine.Unlock()
	return dst
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
	one := h.slot.one[:]
	h.await(one, nil, nil)
	return one[0]
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
	h.await(dst, nil, nil)
}

// DrawHooked is NextBlock for a non-empty dst with schedule
// instrumentation: every shared step of the slot protocol and of the
// combine pass yields first, and waits park in block instead of
// spinning. For package sched; do not mix with unhooked calls in a
// controlled run.
func (h *CombiningHandle) DrawHooked(dst []int64, yield func(op string), block func(op string, ready func() bool)) {
	h.await(dst, yield, block)
}

// await publishes a request for len(dst) values and returns once it is
// served — by this goroutine becoming the combiner, or by another
// combiner draining the slot. A non-nil yield runs before each shared
// step of the slot protocol (publish, lock attempt, done check) and of
// the pass, and a waiting task parks in block until its slot is done
// or the combiner lock is free, where production spins on Gosched.
// Either way the lock is only ever tried, never waited on.
//
//netvet:hotpath
func (h *CombiningHandle) await(dst []int64, yield func(op string), block func(op string, ready func() bool)) {
	s, c := h.slot, h.c
	o := c.watch
	s.n = int32(len(dst))
	s.buf = dst
	hook(yield, "slot publish")
	s.state.Store(slotPending)
	for {
		hook(yield, "combine trylock")
		if c.combine.TryLock() {
			// We are the combiner. combineLocked serves every pending
			// slot it finds; ours is pending (or was just served by the
			// previous combiner, in which case it is done and skipped).
			if s.state.Load() == slotPending {
				c.combineLocked(0, yield)
			}
			c.combine.Unlock()
		}
		hook(yield, "slot check")
		if s.state.Load() == slotDone {
			s.state.Store(slotIdle)
			return
		}
		// Another combiner holds the lock but had already collected its
		// batch before our publish. Yield and retry.
		if o != nil {
			o.SpinRetries.Inc()
		}
		if block != nil {
			//netvet:allow hotpath escape -- sched-hooked lane only; production callers pass a nil block
			block("combine wait", func() bool { return s.state.Load() == slotDone || unlocked(&c.combine) })
			continue
		}
		//netvet:allow gosched
		runtime.Gosched()
	}
}

// unlocked reports whether mu is free by a TryLock/Unlock probe: the
// side-effect-free ready predicate of a controlled task parked on mu.
func unlocked(mu *sync.Mutex) bool {
	if mu.TryLock() {
		mu.Unlock()
		return true
	}
	return false
}

// inject spreads total tokens over the entry wires round-robin from
// the cursor, into c.entry. The counting property holds for any
// distribution of tokens over input wires, so the cursor only spreads
// load, it does not affect correctness. Caller must hold the combiner
// lock.
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

// mint claims one run per touched exit position (exits[pos] tokens
// left there) with one fetch-and-add on its local counter, and appends
// the runs to runs. A non-nil yield runs before each claim.
//
//netvet:hotpath
func (c *CombiningCounter) mint(runs []Run, exits []int64, yield func(op string)) []Run {
	for pos, k := range exits {
		if k == 0 {
			continue
		}
		if yield != nil {
			//netvet:allow hotpath escape -- sched-hooked lane only; production callers pass a nil yield
			yield(fmt.Sprintf("local claim %d", pos))
		}
		base := c.locals[pos].v.Add(k) - k
		//netvet:allow append -- c.runs is allocated with capacity width, one run per exit wire
		runs = append(runs, Run{Start: base*c.width + int64(pos), N: k})
	}
	return runs
}

// expand writes len(dst) values from runs, starting off values into
// runs[r], and returns the cursor just past them. A run that dst ends
// inside is split there: the cursor points into it.
//
//netvet:hotpath
func (c *CombiningCounter) expand(dst []int64, runs []Run, r int, off int64) (int, int64) {
	w := c.width
	for len(dst) > 0 {
		run := runs[r]
		m := min(run.N-off, int64(len(dst)))
		v := run.Start + off*w
		seg := dst[:m]
		for i := range seg {
			seg[i] = v
			v += w
		}
		dst = dst[m:]
		if off += m; off == run.N {
			r, off = r+1, 0
		}
	}
	return r, off
}

// combineLocked drains every pending slot plus the combiner's own
// direct request for n values (0 for handle-driven passes), pushes the
// whole demand through the network as one batch, mints one run per
// touched exit wire, and expands each waiter's block from the runs
// into its buffer. The direct request takes the rest, returned as runs
// in the counter's scratch, valid until the caller releases c.combine.
// Caller must hold c.combine. A non-nil yield runs before every gate
// reservation, exit claim and done flip.
//
//netvet:hotpath
func (c *CombiningCounter) combineLocked(n int, yield func(op string)) []Run {
	// Observability is woven into this body, the batch traversal's only
	// production caller, because a pass already amortizes a whole batch
	// traversal: the nil-checks below are noise next to the work they
	// guard.
	o := c.watch
	var start int64
	if o != nil {
		start = obs.Now()
	}
	pend := c.pending[:0]
	total := int64(n)
	for _, s := range *c.slots.Load() {
		if s.state.Load() == slotPending {
			//netvet:allow append -- grows into c.pending's scratch backing; amortized to zero once the slot set stabilizes
			pend = append(pend, s)
			total += int64(s.n)
		}
	}
	if total == 0 {
		c.pending = pend
		return nil
	}
	var region *obs.TraceRegion
	if o != nil {
		o.PassQueue.Observe(int64(len(pend)))
		o.PassServed.Observe(total)
		// The region and clock close explicitly at the bottom of the
		// pass (control flow past this point is straight-line), so the
		// sample covers the full pass without a defer on the hot path.
		//netvet:allow escape -- context.Background's zero-size boxing at trace.StartRegion; no runtime allocation (BenchmarkObsOverhead alloc guard)
		region = obs.Region("countnet.combine-pass")
	}
	c.inject(total)
	exits := c.exits
	if yield != nil {
		//netvet:allow escape -- sched-hooked lane only: TraverseBatchHooked, inlined here, allocates its result; production passes a nil yield
		exits = c.async.TraverseBatchHooked(c.entry, yield)
	} else {
		c.async.TraverseBatchInto(exits, c.entry, c.scratch)
	}
	runs := c.mint(c.runs[:0], exits, yield)
	c.runs = runs
	// Token conservation guarantees the runs hold exactly total values.
	// Hand each waiter its block, then the direct request takes the
	// rest, starting mid-run where the last waiter's block ended.
	r, off := 0, int64(0)
	for _, s := range pend {
		r, off = c.expand(s.buf[:s.n], runs, r, off)
		s.buf = nil // release the waiter's buffer before waking it
		hook(yield, "slot done")
		s.state.Store(slotDone)
	}
	if off > 0 {
		runs[r].Start += off * c.width
		runs[r].N -= off
	}
	c.pending = pend[:0]
	if o != nil {
		region.End()
		// The clock reads here, start bound at entry: the sample covers
		// the full pass. The region bracketed the same span for traces.
		o.PassNs.ObserveSince(start)
	}
	return runs[r:]
}
