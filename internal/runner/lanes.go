package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Lane-interleaved batch execution.
//
// A sorting network is oblivious: every batch meets the same gates in
// the same order. ApplyBatches therefore transposes a block of up to
// `lanes` batches into wire-major rows — row w holds wire w's value
// from each batch of the block, contiguous — and runs each layer once
// per block. A gate loads its wire indices once and then sweeps its
// rows across the lanes: a min/max loop for 2-comparators, a generated
// lane kernel (zkernels.go, from the same internal/optnet networks as
// the scalar ceN kernels) for widths 3..16, and the gather/insertion
// sort fallback, one lane at a time, for anything wider.

// lanes is the number of batches a block runs through the plan
// together. A block's rows take width·lanes·8 bytes: 46 KB at width
// 360 (L(3,4,5,6)), 8 KB at width 64, so wide networks spill L1 into
// L2 — 16 lanes still measured faster than 8 there, because every
// gate's index loads and dispatch are spread over twice the lanes.
const lanes = 16

// blockScratch is the mutable state of running blocks: the block's
// rows (rows[w][i] is wire w's value in the block's i-th batch) and
// the fallback path's gate buffer.
type blockScratch struct {
	rows [][lanes]int64
	gate []int64
}

// blockPool recycles blockScratch across ApplyBatches and SortBatches
// calls, whatever the plan: getBlockScratch regrows a buffer too short
// for the plan at hand.
var blockPool sync.Pool

func (p *Plan) getBlockScratch() *blockScratch {
	s, _ := blockPool.Get().(*blockScratch)
	if s == nil {
		s = new(blockScratch)
	}
	if len(s.rows) < p.width {
		s.rows = make([][lanes]int64, p.width)
	}
	if len(s.gate) < p.maxWide {
		s.gate = make([]int64, p.maxWide)
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
// network). Batches run lane-interleaved, `lanes` at a time. Every
// batch must have length Width. Extra arguments are ignored: they
// keep callers of the former ApplyBatches(batches, block) compiling.
func (p *Plan) ApplyBatches(batches [][]int64, _ ...int) {
	p.checkBatches(batches)
	p.runBlocks(batches, new(atomic.Int64))
}

// runBlocks claims blocks of `lanes` batches through next (block k
// starts at batch k·lanes) and runs each, until none is left. Every
// SortBatches worker runs it over the same counter.
func (p *Plan) runBlocks(batches [][]int64, next *atomic.Int64) {
	s := p.getBlockScratch()
	for {
		k := int(next.Add(1)-1) * lanes
		if k >= len(batches) {
			break
		}
		p.runBlock(batches[k:min(k+lanes, len(batches))], s.rows, s.gate)
	}
	blockPool.Put(s)
}

// runBlock sorts one block of at most `lanes` batches: transpose into
// rows, run every layer across the lanes, transpose back in output
// order. Its lane loops range over `lanes` and break at the block's
// end, here and in laneWide, so that the compiler proves every lane
// index below `lanes` and drops the bounds check on rows[w][i].
//
//netvet:hotpath
func (p *Plan) runBlock(block [][]int64, rows [][lanes]int64, gate []int64) {
	rows = rows[:p.width]
	for b := range lanes {
		if b == len(block) {
			break
		}
		vals := block[b][:len(rows)]
		for w, v := range vals {
			rows[w][b] = v
		}
	}
	n := len(block)
	for l := 0; l < p.numLayers; l++ {
		p.lanePairs(int(p.pairOff[l]), int(p.pairOff[l+1]), rows, n)
		p.laneWide(int(p.layerWide[l]), int(p.layerWide[l+1]), rows, gate, n)
	}
	for b := range lanes {
		if b == len(block) {
			break
		}
		vals := block[b][:len(p.out)]
		for k, wire := range p.out {
			vals[k] = rows[wire][b]
		}
	}
}

// lanePairs applies 2-comparator pairs [j0,j1) (pair indices) to the
// first n lanes of rows, branchless as in runPairs.
//
//netvet:hotpath
func (p *Plan) lanePairs(j0, j1 int, rows [][lanes]int64, n int) {
	pairs := p.pairs[2*j0 : 2*j1]
	for j := 0; j+1 < len(pairs); j += 2 {
		ra := rows[pairs[j]][:n]
		rb := rows[pairs[j+1]][:n]
		for i := range ra {
			va, vb := ra[i], rb[i]
			ra[i], rb[i] = max(va, vb), min(va, vb)
		}
	}
}

// laneWide applies wide gates [g0,g1) to the first n lanes of rows:
// widths 3..16 through the generated lane kernels (widths 3 and 4 even
// with SetWideKernels(false), as in runWide), wider gates one lane at
// a time by insertion-sorting the lane's values into gate as they are
// gathered. Inserting while gathering, rather than gathering and then
// calling insertionSortDesc, saves a pass over the gate and keeps
// K(4,4,8), whose width-32 gates take this path, level with runWide.
//
//netvet:hotpath
func (p *Plan) laneWide(g0, g1 int, rows [][lanes]int64, gate []int64, n int) {
	for g := g0; g < g1; g++ {
		wires := p.wideWires[p.wideOff[g]:p.wideOff[g+1]]
		if len(wires) <= maxKernelWidth && (len(wires) <= 4 || !p.noKernels) {
			laneKernel[len(wires)](rows, wires, n)
			continue
		}
		t := gate[:len(wires)]
		for i := range lanes {
			if i == n {
				break
			}
			for k, w := range wires {
				v := rows[w][i]
				j := k - 1
				for j >= 0 && t[j] < v {
					t[j+1] = t[j]
					j--
				}
				t[j+1] = v
			}
			for k, w := range wires {
				rows[w][i] = t[k]
			}
		}
	}
}
