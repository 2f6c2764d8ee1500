package runner

import (
	"fmt"

	"countnet/internal/obs"
)

// Batched token propagation.
//
// Traverse moves one token per call: one atomic fetch-and-add per gate
// on the token's path. TraverseBatch moves an arbitrary multiset of
// tokens — entryCounts[i] tokens entering on wire i — with one atomic
// fetch-and-add per *touched gate per batch*: a single count.Add(t)
// reserves t consecutive arrival indices at a gate, and the balancer
// specification (index i leaves on port i mod p) fixes exactly how many
// of those t tokens leave on each port. The whole batch is propagated
// as per-wire counts, gate by gate in topological order, exactly as the
// quiescent transfer function runner.ApplyTokens does — but against the
// network's live counters, so batches compose correctly with concurrent
// single-token Traverse calls and with other batches.
//
// Correctness: the network's quiescent output distribution depends only
// on how many tokens passed through each gate, never on arrival
// interleaving (quiescent consistency — Section 6 of the paper). A
// batch's Add(t) hands its t tokens the next t indices of the gate
// atomically, which is one legal serialization of t single-token Adds;
// every index at every gate is still claimed exactly once across all
// concurrent callers, so any mix of batches and single tokens lands on
// the same quiescent state as the serial execution of the same token
// multiset. The differential suite (batch vs ApplyTokens on every
// golden network) and FuzzBatchVsSerial pin this down.

// BatchScratch holds the per-wire propagation state of a batched
// traversal, so hot callers can reuse it allocation-free. Not safe for
// concurrent use; the Async it came from may be shared freely.
type BatchScratch struct {
	cur []int64
}

// NewBatchScratch returns scratch sized for the network.
func (a *Async) NewBatchScratch() *BatchScratch {
	return &BatchScratch{cur: make([]int64, a.width)}
}

// TraverseBatch pushes entryCounts[i] tokens into the network on each
// wire i using one atomic fetch-and-add per touched gate, and returns
// the number of tokens exiting at each output-order position. Safe for
// concurrent use, including mixed with Traverse and other batches.
func (a *Async) TraverseBatch(entryCounts []int64) []int64 {
	return a.TraverseBatchInto(make([]int64, a.width), entryCounts, nil)
}

// TraverseBatchInto is TraverseBatch writing exit counts into dst
// (length Width) and reusing s; it performs zero allocations when s is
// non-nil. A nil s allocates a fresh scratch. Returns dst.
//
//netvet:hotpath
func (a *Async) TraverseBatchInto(dst, entryCounts []int64, s *BatchScratch) []int64 {
	if s == nil {
		//netvet:allow escape -- cold nil-scratch fallback; steady-state callers pass s (pinned by the zero-alloc tests)
		s = a.NewBatchScratch()
	}
	a.batchArgs(dst, entryCounts)
	copy(s.cur, entryCounts)
	if o := a.watch; o != nil {
		var total int64
		for _, t := range entryCounts {
			total += t
		}
		start := obs.Now()
		//netvet:allow escape -- context.Background's zero-size boxing at trace.StartRegion; no runtime allocation (BenchmarkObsOverhead alloc guard)
		r := obs.Region("countnet.batch")
		a.propagate(s.cur, nil)
		r.End()
		o.BatchNs.ObserveSince(start)
		o.BatchTokens.Observe(total)
	} else {
		a.propagate(s.cur, nil)
	}
	for wire, pos := range a.outPos {
		dst[pos] = s.cur[wire]
	}
	return dst
}

// TraverseBatchHooked is TraverseBatch instrumented for controlled
// scheduling: yield runs immediately before each touched gate's atomic
// fetch-and-add, so a serializing scheduler (package sched) fully
// determines how batch reservations interleave with concurrent
// single-token traversals. It shares the atomic balancer state with
// Traverse/TraverseBatch; do not mix hooked and unhooked calls within
// one controlled run.
func (a *Async) TraverseBatchHooked(entryCounts []int64, yield func(op string)) []int64 {
	dst := make([]int64, a.width)
	a.batchArgs(dst, entryCounts)
	cur := make([]int64, a.width)
	copy(cur, entryCounts)
	a.propagate(cur, yield)
	for wire, pos := range a.outPos {
		dst[pos] = cur[wire]
	}
	return dst
}

//netvet:hotpath
func (a *Async) batchArgs(dst, entryCounts []int64) {
	if len(entryCounts) != a.width {
		panic(fmt.Sprintf("runner: %d entry counts for width-%d network", len(entryCounts), a.width))
	}
	if len(dst) != a.width {
		panic(fmt.Sprintf("runner: %d-element dst for width-%d network", len(dst), a.width))
	}
	for wire, t := range entryCounts {
		if t < 0 {
			panic(fmt.Sprintf("runner: negative token count %d on wire %d", t, wire))
		}
	}
}

// propagate advances cur (tokens per wire) across every gate in
// topological order. Gate order mirrors ApplyTokens: once a gate is
// processed, every token later placed on its wires can only meet later
// gates, so a single in-order pass moves the whole batch.
//
//netvet:hotpath
func (a *Async) propagate(cur []int64, yield func(op string)) {
	for gi := range a.gates {
		g := &a.gates[gi]
		var t int64
		for _, w := range g.wires {
			t += cur[w]
		}
		if t == 0 {
			continue // untouched gate: no atomic traffic at all
		}
		if yield != nil {
			//netvet:allow hotpath escape -- sched-hooked lane only; production callers pass a nil yield
			yield(fmt.Sprintf("gate %d", gi))
		}
		p := g.width
		// Reserve arrival indices i0..i0+t-1 in one fetch-and-add.
		i0 := a.hot[gi].count.Add(t) - t
		// Index i0+j leaves on port (i0+j) mod p, so the port with
		// residue s = (port - i0) mod p receives ceil((t - s) / p)
		// tokens: q per port, plus one for the first r residues.
		var q, r, off int64
		if g.mask >= 0 {
			q, r, off = t>>g.shift, t&g.mask, i0&g.mask
		} else {
			q, r, off = t/p, t%p, i0%p
		}
		for j, w := range g.wires {
			s := int64(j) - off
			if s < 0 {
				s += p
			}
			if s < r {
				cur[w] = q + 1
			} else {
				cur[w] = q
			}
		}
	}
}
