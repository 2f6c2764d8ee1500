package runner

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
)

// Lane-interleaved batch execution.
//
// A sorting network is oblivious: every batch meets the same gates in
// the same order. ApplyBatches therefore transposes a block of up to
// `Lanes` batches into wire-major rows — row w holds wire w's value
// from each batch of the block, contiguous — and runs each layer once
// per block. A run of equal-width gates is one lane kernel call that
// sorts every gate of the run across all the lanes: the generated
// kernel of the plan's laneTable for the run's width (AVX-512 assembly
// or portable Go, both from the internal/optnet networks of the scalar
// ceN kernels). Every run has one, because CompilePlan expands gates
// wider than maxKernelWidth into 2-gates. Lanes past the end of a
// partial block hold stale values; the kernels sort them like any
// other and they are never emitted.

// Lanes is the number of batches a block runs through the plan
// together, the one block size of every batch path: ApplyBatches,
// SortBatches and the root package's SortStream. A block's rows take
// width·Lanes·8 bytes: 46 KB at width 360 (L(3,4,5,6)), 8 KB at width
// 64, so wide networks spill L1 into L2 — 16 lanes still measured
// faster than 8 there, because every gate's index loads and dispatch
// are spread over twice the lanes.
const Lanes = 16

// laneTable holds one lane kernel per gate width: kernel w sorts count
// gates of width w, whose wire lists lie back to back in wires, across
// all `Lanes` lanes of rows. Widths 0 and 1 have none: no gate is that
// narrow.
type laneTable [maxKernelWidth + 1]func(rows [][Lanes]int64, wires []int32, count int)

// nativeLanes is the lane kernel table CompilePlan gives every plan,
// chosen once at init: the AVX-512 kernels where the CPU and OS
// support them, the portable Go kernels elsewhere.
var nativeLanes = cmp.Or(asmLanes(), &goLanes)

// blockScratch is the mutable state of running blocks: the block's
// rows (rows[w][i] is wire w's value in the block's i-th batch).
type blockScratch struct {
	rows [][Lanes]int64
}

// blockPool recycles blockScratch across ApplyBatches and SortBatches
// calls, whatever the plan: getBlockScratch regrows rows too short for
// the plan at hand.
var blockPool sync.Pool

func (p *Plan) getBlockScratch() *blockScratch {
	s, _ := blockPool.Get().(*blockScratch)
	if s == nil {
		s = new(blockScratch)
	}
	if len(s.rows) < p.width {
		s.rows = make([][Lanes]int64, p.width)
	}
	return s
}

// checkBatches panics unless every batch has length Width.
func (p *Plan) checkBatches(batches [][]int64) {
	for i, b := range batches {
		if len(b) != p.width {
			panic(fmt.Sprintf("runner: plan batch %d has %d values for width-%d network", i, len(b), p.width))
		}
	}
}

// ApplyBatches runs every batch through the plan in place: each batch
// is replaced by its output sequence (descending for a sorting
// network). Batches run lane-interleaved, `Lanes` at a time. Every
// batch must have length Width. Extra arguments are ignored: they
// keep callers of the former ApplyBatches(batches, block) compiling.
func (p *Plan) ApplyBatches(batches [][]int64, _ ...int) {
	p.checkBatches(batches)
	p.runBlocks(batches, new(atomic.Int64), p.out)
}

// SortBatches sorts every batch through the plan using `workers`
// data-parallel goroutines, the caller's included. Batches are
// replaced in place with their sorted contents in network output order
// (descending). Workers claim blocks of `Lanes` batches and run each
// as ApplyBatches does.
func (p *Plan) SortBatches(batches [][]int64, workers int) {
	p.sortBatches(batches, workers, p.out)
}

// SortBatchesAscending is SortBatches with every batch emitted in
// reverse output order, ascending for a sorting network. The reversal
// costs nothing: it is the order of the transpose back out of a block.
func (p *Plan) SortBatchesAscending(batches [][]int64, workers int) {
	p.sortBatches(batches, workers, p.rev)
}

func (p *Plan) sortBatches(batches [][]int64, workers int, out []int32) {
	p.checkBatches(batches)
	workers = min(workers, (len(batches)+Lanes-1)/Lanes)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 1; g < workers; g++ {
		wg.Add(1)
		// Production-only worker pool for the synchronous plan engine;
		// not a replayed path.
		//netvet:allow spawn
		go func() {
			defer wg.Done()
			p.runBlocks(batches, &next, out)
		}()
	}
	p.runBlocks(batches, &next, out)
	wg.Wait()
}

// runBlocks claims blocks of `Lanes` batches through next (block k
// starts at batch k·Lanes) and runs each, emitting output position k
// from wire out[k], until none is left. Every SortBatches worker runs
// it over the same counter.
func (p *Plan) runBlocks(batches [][]int64, next *atomic.Int64, out []int32) {
	s := p.getBlockScratch()
	for {
		k := int(next.Add(1)-1) * Lanes
		if k >= len(batches) {
			break
		}
		p.runBlock(batches[k:min(k+Lanes, len(batches))], s.rows, out)
	}
	blockPool.Put(s)
}

// runBlock sorts one block of at most `Lanes` batches: transpose into
// rows, run every layer across the lanes with one call per run,
// transpose back in the order out gives. Its transpose loops range
// over `Lanes` and break at the block's end, so that the compiler
// proves every lane index below `Lanes` and drops the bounds check on
// rows[w][i].
//
//netvet:hotpath
func (p *Plan) runBlock(block [][]int64, rows [][Lanes]int64, out []int32) {
	rows = rows[:p.width]
	for b := range Lanes {
		if b == len(block) {
			break
		}
		vals := block[b][:len(rows)]
		for w, v := range vals {
			rows[w][b] = v
		}
	}
	kern := p.kern
	for _, layer := range p.layers {
		for _, r := range layer {
			kern[r.width](rows, r.wires, r.count)
		}
	}
	for b := range Lanes {
		if b == len(block) {
			break
		}
		vals := block[b][:len(out)]
		for k, wire := range out {
			vals[k] = rows[wire][b]
		}
	}
}
