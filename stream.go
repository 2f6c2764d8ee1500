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
	out := s.out
	s.plan.Apply(out, in, s.s)
	// The step convention emits largest-first; callers get ascending.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
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

// SortStream pushes every batch from in through the network using one
// goroutine per network layer, each running that layer of the
// network's compiled plan (pipelined: batch k+1 enters layer 1 while
// batch k is in layer 2), emitting ascending-sorted batches in
// input order on the returned channel. Each input batch must have
// exactly Width values; input slices are reused as scratch. The output
// channel closes after the last batch.
func (n *Network) SortStream(in <-chan []int64) <-chan []int64 {
	p := runner.NewPipeline(n.evalPlan(), 2)
	out := make(chan []int64, 2)
	go func() {
		for batch := range in {
			p.Submit(batch)
		}
		p.Close()
	}()
	go func() {
		defer close(out)
		for batch := range p.Results() {
			asc := make([]int64, len(batch))
			for k, wire := range p.OutputOrder() {
				asc[len(batch)-1-k] = batch[wire]
			}
			out <- asc
		}
		p.Wait()
	}()
	return out
}
