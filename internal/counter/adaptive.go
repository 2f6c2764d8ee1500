package counter

// Adaptive counting front-end: one atomic fetch-and-add word behind a
// fixed per-handle prefetch. A handle claims adaptivePrefetch
// consecutive values with one fetch-and-add and serves Next from them,
// so the shared word sees one RMW per block instead of one per value.
//
// It does not switch engines: measured on a 2-vCPU box, switching to
// the network or combining counter never paid (docs/PERFORMANCE.md,
// "Adaptive engine").

import "countnet/internal/obs"

// adaptivePrefetch is the number of values a handle claims per refill;
// BENCH_adaptive.json's adaptive lane measures it.
const adaptivePrefetch = 32

// AdaptiveCounter is a Fetch&Increment counter over one atomic word
// whose handles prefetch adaptivePrefetch values at a time. At
// quiescence the values handed out — including those still buffered
// in handles, see AdaptiveHandle.Unserved — are exactly 0..N-1.
type AdaptiveCounter struct {
	word AtomicCounter
}

// NewAdaptiveCounter returns a zeroed adaptive counter.
func NewAdaptiveCounter() *AdaptiveCounter { return &AdaptiveCounter{} }

// EnableObs registers the counter under the given group name with r
// (obs.Default when nil). The group reports ops, the values drawn from
// the word (buffered ones included); the draw path records nothing.
func (c *AdaptiveCounter) EnableObs(name string, r *obs.Registry) *obs.AdaptiveObs {
	o := obs.NewAdaptiveObs(name, c.word.issued)
	if r == nil {
		r = obs.Default
	}
	r.Register(name, o)
	return o
}

// Next issues one value straight from the word. Prefer Handle in
// concurrent loops: handles touch the word once per block.
func (c *AdaptiveCounter) Next() int64 { return c.word.Next() }

// NextBlock claims len(dst) consecutive values straight from the word.
func (c *AdaptiveCounter) NextBlock(dst []int64) { c.word.NextBlock(dst) }

// Handle returns a goroutine-local view with its own prefetch block.
// Handles must not be shared between goroutines; they register
// nothing, so one may be made per operation. id is accepted for
// symmetry with the other counters and does not affect behaviour.
func (c *AdaptiveCounter) Handle(id int) Counter { return &AdaptiveHandle{c: c} }

// AdaptiveHandle is a single-goroutine view of an AdaptiveCounter. Its
// prefetch block is the value range [next, end), claimed from the word
// in one fetch-and-add.
type AdaptiveHandle struct {
	c         *AdaptiveCounter
	next, end int64
}

// Next returns the next value from the handle's prefetch block,
// claiming a fresh block when it is used up.
//
//netvet:hotpath
func (h *AdaptiveHandle) Next() int64 {
	if h.next < h.end {
		v := h.next
		h.next++
		return v
	}
	return h.refill()
}

// refill claims adaptivePrefetch values, serves the first and buffers
// the rest.
//
//netvet:hotpath
func (h *AdaptiveHandle) refill() int64 {
	base := h.c.word.v.Add(adaptivePrefetch) - adaptivePrefetch
	h.next, h.end = base+1, base+adaptivePrefetch
	return base
}

// NextBlock claims len(dst) consecutive values from the word in one
// fetch-and-add, bypassing the prefetch block.
//
//netvet:hotpath
func (h *AdaptiveHandle) NextBlock(dst []int64) { h.c.word.NextBlock(dst) }

// Unserved returns the values sitting in the prefetch block — drawn
// from the word but not yet returned by Next. Gap-free oracles union
// these with the consumed values: at quiescence, consumed ∪ unserved
// over all handles is exactly 0..N-1.
func (h *AdaptiveHandle) Unserved() []int64 {
	out := make([]int64, 0, h.end-h.next)
	for v := h.next; v < h.end; v++ {
		out = append(out, v)
	}
	return out
}
