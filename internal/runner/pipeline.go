package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pipeline executes a stream of batches through a compiled plan with
// one goroutine per layer — the deployment mode sorting networks are
// designed for: batch k can be in layer 3 while batch k+1 is in layer
// 2. Throughput approaches one batch per layer-latency instead of one
// batch per network-latency. Each stage runs its layer with the plan's
// own kernels (runLayer), so the stream sorts exactly as Apply does.
type Pipeline struct {
	plan   *Plan
	stages []chan []int64
	out    chan []int64
	wg     sync.WaitGroup
}

// NewPipeline starts the layer goroutines over the plan. Close the
// pipeline with Close after the last Submit; results arrive on Results
// in submission order.
func NewPipeline(plan *Plan, buffer int) *Pipeline {
	p := &Pipeline{plan: plan}
	p.stages = make([]chan []int64, plan.NumLayers()+1)
	for i := range p.stages {
		p.stages[i] = make(chan []int64, buffer)
	}
	p.out = p.stages[plan.NumLayers()]
	for l := 0; l < plan.NumLayers(); l++ {
		l := l
		p.wg.Add(1)
		// Production-only stage goroutine; the sched harness explores the
		// asynchronous token paths, not these workers.
		//netvet:allow spawn
		go func() {
			defer p.wg.Done()
			defer close(p.stages[l+1])
			gate := make([]int64, plan.maxWide)
			for vals := range p.stages[l] {
				plan.runLayer(l, vals, gate)
				p.stages[l+1] <- vals
			}
		}()
	}
	return p
}

// Submit feeds one batch (length Width) into the pipeline. The slice is
// owned by the pipeline until it reappears on Results. Submit blocks
// when the pipeline is full.
func (p *Pipeline) Submit(batch []int64) {
	if len(batch) != p.plan.Width() {
		panic(fmt.Sprintf("runner: %d inputs for width-%d network", len(batch), p.plan.Width()))
	}
	p.stages[0] <- batch
}

// Results returns the channel of completed batches, in submission
// order. Batches stay in wire order (zero-copy); index
// batch[OutputOrder()[k]] for the k-th ranked value.
func (p *Pipeline) Results() <-chan []int64 { return p.out }

// Close signals the end of input; Results closes after the last batch
// drains.
func (p *Pipeline) Close() {
	close(p.stages[0])
}

// Wait blocks until all stages exit (call after Close and draining
// Results).
func (p *Pipeline) Wait() { p.wg.Wait() }

// OutputOrder maps output position to wire, so consumers can interpret
// Results batches (which stay in wire order for zero-copy).
func (p *Pipeline) OutputOrder() []int32 { return p.plan.out }

// SortBatches sorts every batch through the plan using `workers`
// data-parallel goroutines, the caller's included. Batches are
// replaced in place with their sorted contents in network output order
// (descending). Workers claim blocks of `lanes` batches and run each
// as ApplyBatches does. It complements Pipeline: data parallelism
// across batches rather than pipeline parallelism across layers.
func (plan *Plan) SortBatches(batches [][]int64, workers int) {
	plan.sortBatches(batches, workers, plan.out)
}

// SortBatchesAscending is SortBatches with every batch emitted in
// reverse output order, ascending for a sorting network. The reversal
// costs nothing: it is the order of the transpose back out of a block.
func (plan *Plan) SortBatchesAscending(batches [][]int64, workers int) {
	plan.sortBatches(batches, workers, plan.rev)
}

func (plan *Plan) sortBatches(batches [][]int64, workers int, out []int32) {
	plan.checkBatches(batches)
	workers = min(workers, (len(batches)+lanes-1)/lanes)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 1; g < workers; g++ {
		wg.Add(1)
		// Production-only worker pool for the synchronous plan engine;
		// not a replayed path.
		//netvet:allow spawn
		go func() {
			defer wg.Done()
			plan.runBlocks(batches, &next, out)
		}()
	}
	plan.runBlocks(batches, &next, out)
	wg.Wait()
}
