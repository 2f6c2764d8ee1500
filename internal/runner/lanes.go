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
// `lanes` batches into wire-major rows — row w holds wire w's value
// from each batch of the block, contiguous — and runs each layer once
// per block. A run of equal-width gates is one lane kernel call that
// sorts every gate of the run across all the lanes: a generated
// kernel of the plan's laneTable for widths 2..16 (AVX-512 assembly
// or portable Go, both from the internal/optnet networks of the scalar
// ceN kernels), the gather/insertion sort fallback, one lane at a
// time, for anything wider. Lanes past the end of a partial block hold
// stale values; the kernels sort them like any other and they are
// never emitted.

// lanes is the number of batches a block runs through the plan
// together. A block's rows take width·lanes·8 bytes: 46 KB at width
// 360 (L(3,4,5,6)), 8 KB at width 64, so wide networks spill L1 into
// L2 — 16 lanes still measured faster than 8 there, because every
// gate's index loads and dispatch are spread over twice the lanes.
const lanes = 16

// laneTable holds one lane kernel per gate width: kernel w sorts count
// gates of width w, whose wire lists lie back to back in wires, across
// all `lanes` lanes of rows. A nil entry sends the width to the
// fallback.
type laneTable [maxKernelWidth + 1]func(rows [][lanes]int64, wires []int32, count int)

// nativeLanes is the lane kernel table CompilePlan gives every plan,
// chosen once at init: the AVX-512 kernels where the CPU and OS
// support them, the portable Go kernels elsewhere.
var nativeLanes = cmp.Or(asmLanes(), &goLanes)

// refLanes is the reference table of SetWideKernels(false): portable
// kernels for widths 2..4 only, every wider gate to the fallback.
var refLanes = laneTable{2: lane2, 3: lane3, 4: lane4}

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
	p.runBlocks(batches, new(atomic.Int64), p.out)
}

// runBlocks claims blocks of `lanes` batches through next (block k
// starts at batch k·lanes) and runs each, emitting output position k
// from wire out[k], until none is left. Every SortBatches worker runs
// it over the same counter.
func (p *Plan) runBlocks(batches [][]int64, next *atomic.Int64, out []int32) {
	s := p.getBlockScratch()
	for {
		k := int(next.Add(1)-1) * lanes
		if k >= len(batches) {
			break
		}
		p.runBlock(batches[k:min(k+lanes, len(batches))], s.rows, s.gate, out)
	}
	blockPool.Put(s)
}

// runBlock sorts one block of at most `lanes` batches: transpose into
// rows, run every layer across the lanes with one call per run,
// transpose back in the order out gives. Its transpose loops range
// over `lanes` and break at the block's end, so that the compiler
// proves every lane index below `lanes` and drops the bounds check on
// rows[w][i].
//
//netvet:hotpath
func (p *Plan) runBlock(block [][]int64, rows [][lanes]int64, gate []int64, out []int32) {
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
	kern := p.kern
	for _, layer := range p.layers {
		for _, r := range layer {
			if r.width <= maxKernelWidth && kern[r.width] != nil {
				kern[r.width](rows, r.wires, r.count)
			} else {
				laneSort(rows, r.wires, r.width, gate)
			}
		}
	}
	for b := range lanes {
		if b == len(block) {
			break
		}
		vals := block[b][:len(out)]
		for k, wire := range out {
			vals[k] = rows[wire][b]
		}
	}
}

// laneSort sorts the gates of a run of width w, one lane at a time, by
// insertion-sorting the lane's values into gate as they are gathered.
// Inserting while gathering, rather than gathering and then calling
// insertionSortDesc, saves a pass over the gate and keeps K(4,4,8),
// whose width-32 gates take this path, level with runLayer.
//
//netvet:hotpath
func laneSort(rows [][lanes]int64, wires []int32, w int, gate []int64) {
	t := gate[:w]
	for g := 0; g+w <= len(wires); g += w {
		gw := wires[g : g+w]
		for i := range lanes {
			for k, r := range gw {
				v := rows[r][i]
				j := k - 1
				for j >= 0 && t[j] < v {
					t[j+1] = t[j]
					j--
				}
				t[j+1] = v
			}
			for k, r := range gw {
				rows[r][i] = t[k]
			}
		}
	}
}
