package countnet

import (
	"fmt"

	"countnet/internal/runner"
)

// BatchSorter is a reusable, allocation-free batch sorter over one
// network. Not safe for concurrent use; create one per goroutine.
type BatchSorter struct {
	plan *runner.Plan
	s    *runner.Scratch
	out  []int64
}

// NewBatchSorter prepares a BatchSorter for the network, sharing the
// network's cached evaluation plan.
func NewBatchSorter(n *Network) *BatchSorter {
	plan := n.evalPlan()
	return &BatchSorter{plan: plan, s: plan.NewScratch(), out: make([]int64, n.Width())}
}

// Sort sorts one batch of exactly Width values ascending. The returned
// slice is reused by the next call; copy it to keep it.
func (s *BatchSorter) Sort(in []int64) []int64 {
	s.plan.ApplyAscending(s.out, in, s.s)
	return s.out
}

// SortBatches sorts every batch in place, ascending, using `workers`
// data-parallel goroutines (each with private scratch). Every batch
// must have exactly Width values.
func (n *Network) SortBatches(batches [][]int64, workers int) error {
	for i, b := range batches {
		if len(b) != n.Width() {
			return fmt.Errorf("countnet: batch %d has %d values for width-%d network", i, len(b), n.Width())
		}
	}
	n.evalPlan().SortBatchesAscending(batches, workers)
	return nil
}

// SortStream sorts every batch from in ascending and emits it on the
// returned channel, in input order: the input slice itself, sorted in
// place. One goroutine receives a batch, takes up to runner.Lanes-1
// more that are already waiting and sorts them together as one lane
// block of the network's compiled plan. It never waits to fill a
// block, so a lone batch comes straight back. A batch whose length is
// not Width is emitted unchanged, in its place; its length tells the
// reader it was not sorted. The output channel holds a full block and
// closes after the last batch.
func (n *Network) SortStream(in <-chan []int64) <-chan []int64 {
	plan := n.evalPlan()
	// A full block fits in out, so a sorted block is emitted without
	// waiting for the reader, and a caller may send up to a block's
	// worth of batches before it reads any.
	out := make(chan []int64, runner.Lanes)
	go func() {
		defer close(out)
		block := make([][]int64, 0, runner.Lanes)
		for batch := range in {
			block = append(block[:0], batch)
		fill:
			for len(block) < runner.Lanes {
				select {
				case b, ok := <-in:
					if !ok {
						break fill
					}
					block = append(block, b)
				default:
					break fill
				}
			}
			// Sort each run of right-width batches, then pass the
			// wrong-width batch that ends it through unchanged.
			for rest := block; len(rest) > 0; {
				k := 0
				for k < len(rest) && len(rest[k]) == n.Width() {
					k++
				}
				plan.SortBatchesAscending(rest[:k], 1)
				k = min(k+1, len(rest))
				for _, b := range rest[:k] {
					out <- b
				}
				rest = rest[k:]
			}
		}
	}()
	return out
}
