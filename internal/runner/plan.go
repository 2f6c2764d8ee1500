package runner

import (
	"fmt"

	"countnet/internal/network"
)

// The straight-line compare-exchange kernels for gate widths 5..16
// (zkernels.go) are generated from the verified sorting-network table
// in internal/optnet. make generate-check gates drift in CI.
//go:generate go run countnet/cmd/kernelgen -out zkernels.go

// Plan is a network compiled for comparator-semantics execution: a flat
// structure-of-arrays form with int32 wire indices, gates grouped by
// layer, and the dominant 2-comparators segregated from wide gates so
// the hot loop dispatches without per-gate branching on gate width.
//
// A Plan is immutable after CompilePlan and safe for concurrent use;
// all mutable state lives in per-caller Scratch or pooled blockScratch.
// Every int64 sorting path runs the compiled form one layer at a time:
//
//   - Apply: one batch through runLayer, allocation-free with
//     caller-provided Scratch;
//   - ApplyBatches: many batches lane-interleaved (lanes.go) — a block
//     of `lanes` batches is transposed into wire-major rows and each
//     gate sweeps its rows across the block;
//   - SortBatches: those blocks handed out to data-parallel workers;
//   - Pipeline: one goroutine per layer over a stream of batches,
//     each stage running runLayer.
//
// All of them produce output identical to ApplyComparators: element k
// of the result is the value leaving on wire OutputOrder[k], gates
// route their largest input to their first wire.
type Plan struct {
	width     int
	numLayers int
	maxWide   int // width of the widest non-2 gate, 0 if none

	// 2-comparators, layer-major: layer l owns pair indices
	// pairOff[l]..pairOff[l+1], pair j is wires pairs[2j], pairs[2j+1].
	pairs   []int32
	pairOff []int32

	// Wide gates (width >= 3), layer-major: layer l owns wide-gate
	// indices layerWide[l]..layerWide[l+1]; wide gate g touches wires
	// wideWires[wideOff[g]:wideOff[g+1]].
	wideWires []int32
	wideOff   []int32
	layerWide []int32

	out      []int32 // output position -> wire
	outIdent bool

	// noKernels forces the gather/insertion-sort/scatter path for
	// every gate wider than 4, disabling the generated straight-line
	// kernels (zkernels.go). Off in production; the differential
	// tests and the kernel-vs-fallback benchmarks flip it via
	// SetWideKernels to pin both engines against each other.
	noKernels bool
}

// CompilePlan compiles the network once; the result may be reused for
// any number of batches from any number of goroutines.
func CompilePlan(net *network.Network) *Plan {
	p := &Plan{
		width:     net.Width(),
		numLayers: net.Depth(),
		pairOff:   make([]int32, 1, net.Depth()+1),
		wideOff:   make([]int32, 1),
		layerWide: make([]int32, 1, net.Depth()+1),
		out:       make([]int32, net.Width()),
		outIdent:  true,
	}
	for _, ids := range net.Layers() {
		for _, id := range ids {
			g := &net.Gates[id]
			if g.Width() == 2 {
				p.pairs = append(p.pairs, int32(g.Wires[0]), int32(g.Wires[1]))
				continue
			}
			if g.Width() > p.maxWide {
				p.maxWide = g.Width()
			}
			for _, w := range g.Wires {
				p.wideWires = append(p.wideWires, int32(w))
			}
			p.wideOff = append(p.wideOff, int32(len(p.wideWires)))
		}
		p.pairOff = append(p.pairOff, int32(len(p.pairs)/2))
		p.layerWide = append(p.layerWide, int32(len(p.wideOff)-1))
	}
	for pos, wire := range net.OutputOrder {
		p.out[pos] = int32(wire)
		if pos != wire {
			p.outIdent = false
		}
	}
	return p
}

// Width returns the batch size the plan executes.
func (p *Plan) Width() int { return p.width }

// SetWideKernels toggles the generated straight-line kernels for wide
// gates of width 5..16 (on by default). With on=false every gate
// wider than 4 takes the gather/insertion-sort/scatter path — the
// reference engine the kernels are differential-tested and
// benchmarked against. Call before the plan is shared: the flag is
// read by concurrent runs without synchronization.
func (p *Plan) SetWideKernels(on bool) { p.noKernels = !on }

// NumLayers returns the number of compiled layers (the network depth).
func (p *Plan) NumLayers() int { return p.numLayers }

// Scratch is the per-caller mutable state of plan execution: the wire
// values and the wide-gate sorting buffer. A Scratch may be reused
// across calls but not shared between concurrent ones.
type Scratch struct {
	vals []int64
	gate []int64
}

// NewScratch returns scratch sized for the plan.
func (p *Plan) NewScratch() *Scratch {
	return &Scratch{vals: make([]int64, p.width), gate: make([]int64, p.maxWide)}
}

// Apply runs one batch through the plan: src enters on wires 0..w-1 and
// dst receives the output sequence (element k is the value on wire
// OutputOrder[k], i.e. descending for a sorting network). dst and src
// must have length Width and may alias each other. With a Scratch from
// NewScratch, Apply performs no allocation; a nil Scratch allocates one.
//
//netvet:hotpath
func (p *Plan) Apply(dst, src []int64, s *Scratch) {
	if len(src) != p.width || len(dst) != p.width {
		panic(fmt.Sprintf("runner: plan batch %d/%d for width-%d network", len(src), len(dst), p.width))
	}
	if s == nil {
		//netvet:allow escape -- cold nil-scratch fallback; steady-state callers pass s (pinned by the zero-alloc tests)
		s = p.NewScratch()
	}
	copy(s.vals, src)
	for l := 0; l < p.numLayers; l++ {
		p.runLayer(l, s.vals, s.gate)
	}
	//netvet:allow escape -- inlined emit re-attributes its panic string's boxing here; a constant string boxes to static data, no runtime allocation
	p.emit(dst, s.vals)
}

// emit writes the wire values to dst in output order.
//
//netvet:hotpath
func (p *Plan) emit(dst, vals []int64) {
	if p.outIdent {
		copy(dst, vals)
		return
	}
	if &dst[0] == &vals[0] {
		panic("runner: plan emit cannot permute in place")
	}
	for k, wire := range p.out {
		dst[k] = vals[wire]
	}
}

// runLayer applies one layer to vals in wire order.
//
//netvet:hotpath
func (p *Plan) runLayer(l int, vals, gate []int64) {
	p.runPairs(int(p.pairOff[l]), int(p.pairOff[l+1]), vals)
	p.runWide(int(p.layerWide[l]), int(p.layerWide[l+1]), vals, gate)
}

// runWide applies wide gates [g0,g1) to vals. Widths 3 and 4 — the
// bulk of every small-factor construction — run as fixed
// compare-exchange networks on registers; widths 5..16 dispatch to
// the generated straight-line kernels (zkernels.go, built from the
// verified internal/optnet table); only gates wider than
// maxKernelWidth gather into the scratch buffer and insertion-sort.
//
//netvet:hotpath
func (p *Plan) runWide(g0, g1 int, vals, gate []int64) {
	for g := g0; g < g1; g++ {
		wires := p.wideWires[p.wideOff[g]:p.wideOff[g+1]]
		switch len(wires) {
		case 3:
			a, b, c := wires[0], wires[1], wires[2]
			va, vb, vc := vals[a], vals[b], vals[c]
			va, vb = max(va, vb), min(va, vb)
			vb, vc = max(vb, vc), min(vb, vc)
			va, vb = max(va, vb), min(va, vb)
			vals[a], vals[b], vals[c] = va, vb, vc
		case 4:
			a, b, c, d := wires[0], wires[1], wires[2], wires[3]
			va, vb, vc, vd := vals[a], vals[b], vals[c], vals[d]
			va, vc = max(va, vc), min(va, vc)
			vb, vd = max(vb, vd), min(vb, vd)
			va, vb = max(va, vb), min(va, vb)
			vc, vd = max(vc, vd), min(vc, vd)
			vb, vc = max(vb, vc), min(vb, vc)
			vals[a], vals[b], vals[c], vals[d] = va, vb, vc, vd
		default:
			if len(wires) <= maxKernelWidth && !p.noKernels {
				wideKernel[len(wires)](vals, wires)
				continue
			}
			t := gate[:len(wires)]
			for i, w := range wires {
				t[i] = vals[w]
			}
			insertionSortDesc(t)
			for i, w := range wires {
				vals[w] = t[i]
			}
		}
	}
}

// runPairs applies 2-comparator pairs [j0,j1) (pair indices) to vals.
// The branchless min/max form compiles to conditional moves, immune to
// the ~50% mispredict rate a data-dependent swap suffers on random
// input.
//
//netvet:hotpath
func (p *Plan) runPairs(j0, j1 int, vals []int64) {
	pairs := p.pairs[2*j0 : 2*j1]
	for i := 0; i+1 < len(pairs); i += 2 {
		a, b := pairs[i], pairs[i+1]
		va, vb := vals[a], vals[b]
		vals[a], vals[b] = max(va, vb), min(va, vb)
	}
}
