package runner

import (
	"fmt"

	"countnet/internal/network"
)

// The straight-line compare-exchange kernels (zkernels.go) and the
// AVX-512 lane kernels (zlanes_amd64.go, zlanes_amd64.s) are generated
// from the verified sorting-network table in internal/optnet. make
// generate-check gates drift in CI.
//go:generate go run countnet/cmd/kernelgen -dir .

// Plan is a network compiled for comparator-semantics execution: a flat
// form with int32 wire indices in which each layer is a few runs of
// equal-width gates. The gates of a layer are disjoint, so grouping
// them by width changes no output, and the hot loops dispatch once per
// run instead of once per gate.
//
// A Plan is immutable after CompilePlan and safe for concurrent use;
// all mutable state lives in per-caller Scratch or pooled blockScratch.
// Every int64 sorting path runs the compiled form one layer at a time:
//
//   - Apply: one batch through runLayer, allocation-free with
//     caller-provided Scratch;
//   - ApplyBatches: many batches lane-interleaved (lanes.go) — a block
//     of `lanes` batches is transposed into wire-major rows and each
//     run is one lane kernel call over the whole block: AVX-512
//     assembly on amd64 CPUs with AVX-512F, portable Go elsewhere;
//   - SortBatches: those blocks handed out to data-parallel workers;
//   - Pipeline: one goroutine per layer over a stream of batches,
//     each stage running runLayer.
//
// All of them produce output identical to ApplyComparators: element k
// of the result is the value leaving on wire OutputOrder[k], gates
// route their largest input to their first wire.
type Plan struct {
	width   int
	maxWide int // width of the widest gate, 0 if none

	// layers[l] is layer l as runs of equal-width gates; every run's
	// wires are a window of one shared []int32.
	layers [][]gateRun

	out      []int32 // output position -> wire
	rev      []int32 // out reversed: ascending output for a sorting network
	outIdent bool

	// noKernels forces the gather/insertion-sort/scatter path for
	// every gate wider than 4, disabling the generated straight-line
	// kernels. Off in production; the differential tests and the
	// kernel-vs-fallback benchmarks flip it via SetWideKernels to pin
	// both engines against each other.
	noKernels bool

	// kern is the lane kernel table of ApplyBatches: nativeLanes, or
	// refLanes under SetWideKernels(false). Tests set it to run one
	// table against another.
	kern *laneTable
}

// gateRun is count gates of one width whose wire lists lie back to
// back in wires, each largest-first.
type gateRun struct {
	wires        []int32
	width, count int
}

// CompilePlan compiles the network once; the result may be reused for
// any number of batches from any number of goroutines.
func CompilePlan(net *network.Network) *Plan {
	p := &Plan{
		width:    net.Width(),
		out:      make([]int32, net.Width()),
		rev:      make([]int32, net.Width()),
		outIdent: true,
		kern:     nativeLanes,
	}
	// Bucket the gates by layer with a counting sort on Gate.Layer,
	// then group each layer's gates by width with a counting pass:
	// count the gates of each width (widths in order of first
	// appearance), give each width its window of wires, then fill the
	// windows.
	depth := net.Depth()
	start := make([]int, depth+1) // layer l's gates are byLayer[start[l]:start[l+1]]
	size := 0
	for i := range net.Gates {
		g := &net.Gates[i]
		start[g.Layer]++ // Layer is 1-based: this counts layer g.Layer-1 into its end
		size += g.Width()
		p.maxWide = max(p.maxWide, g.Width())
	}
	for l := 1; l <= depth; l++ {
		start[l] += start[l-1]
	}
	byLayer := make([]int32, len(net.Gates))
	at := make([]int, depth)
	copy(at, start)
	for i := range net.Gates {
		l := net.Gates[i].Layer - 1
		byLayer[at[l]] = int32(i)
		at[l]++
	}

	wires := make([]int32, 0, size)
	count := make([]int, p.maxWide+1)
	fill := make([]int, p.maxWide+1)
	var widths []int
	var runs []gateRun
	bounds := make([]int, depth+1) // layer l owns runs[bounds[l]:bounds[l+1]]
	for l := range depth {
		ids := byLayer[start[l]:start[l+1]]
		widths = widths[:0]
		for _, id := range ids {
			w := net.Gates[id].Width()
			if count[w] == 0 {
				widths = append(widths, w)
			}
			count[w]++
		}
		for _, w := range widths {
			fill[w] = len(wires)
			wires = wires[:len(wires)+w*count[w]]
			runs = append(runs, gateRun{wires: wires[fill[w]:len(wires):len(wires)], width: w, count: count[w]})
			count[w] = 0
		}
		for _, id := range ids {
			g := &net.Gates[id]
			for _, w := range g.Wires {
				wires[fill[g.Width()]] = int32(w)
				fill[g.Width()]++
			}
		}
		bounds[l+1] = len(runs)
	}
	p.layers = make([][]gateRun, depth)
	for l := range p.layers {
		p.layers[l] = runs[bounds[l]:bounds[l+1]:bounds[l+1]]
	}
	for pos, wire := range net.OutputOrder {
		p.out[pos] = int32(wire)
		p.rev[len(p.rev)-1-pos] = int32(wire)
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
// wider than 4 takes the gather/insertion-sort/scatter path and
// ApplyBatches runs only portable Go (refLanes) — the reference engine
// the kernels are differential-tested and benchmarked against. Call
// before the plan is shared: the fields are read by concurrent runs
// without synchronization.
func (p *Plan) SetWideKernels(on bool) {
	p.noKernels = !on
	p.kern = nativeLanes
	if !on {
		p.kern = &refLanes
	}
}

// NumLayers returns the number of compiled layers (the network depth).
func (p *Plan) NumLayers() int { return len(p.layers) }

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
	for l := range p.layers {
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

// runLayer applies one layer to vals in wire order, one run at a
// time. 2-comparators and widths 3 and 4 — the bulk of every
// small-factor construction — run as fixed compare-exchange networks
// on registers, branchless: min/max compiles to conditional moves,
// immune to the ~50% mispredict rate a data-dependent swap suffers on
// random input. Widths 5..16 dispatch to the generated straight-line
// kernels (zkernels.go, built from the verified internal/optnet
// table); only gates wider than maxKernelWidth gather into the
// scratch buffer and insertion-sort.
//
//netvet:hotpath
func (p *Plan) runLayer(l int, vals, gate []int64) {
	for _, r := range p.layers[l] {
		wires := r.wires
		switch {
		case r.width == 2:
			for i := 0; i+1 < len(wires); i += 2 {
				a, b := wires[i], wires[i+1]
				va, vb := vals[a], vals[b]
				vals[a], vals[b] = max(va, vb), min(va, vb)
			}
		case r.width == 3:
			for i := 0; i+2 < len(wires); i += 3 {
				a, b, c := wires[i], wires[i+1], wires[i+2]
				va, vb, vc := vals[a], vals[b], vals[c]
				va, vb = max(va, vb), min(va, vb)
				vb, vc = max(vb, vc), min(vb, vc)
				va, vb = max(va, vb), min(va, vb)
				vals[a], vals[b], vals[c] = va, vb, vc
			}
		case r.width == 4:
			for i := 0; i+3 < len(wires); i += 4 {
				a, b, c, d := wires[i], wires[i+1], wires[i+2], wires[i+3]
				va, vb, vc, vd := vals[a], vals[b], vals[c], vals[d]
				va, vc = max(va, vc), min(va, vc)
				vb, vd = max(vb, vd), min(vb, vd)
				va, vb = max(va, vb), min(va, vb)
				vc, vd = max(vc, vd), min(vc, vd)
				vb, vc = max(vb, vc), min(vb, vc)
				vals[a], vals[b], vals[c], vals[d] = va, vb, vc, vd
			}
		case r.width <= maxKernelWidth && !p.noKernels:
			kernel := wideKernel[r.width]
			for i := 0; i < len(wires); i += r.width {
				kernel(vals, wires[i:i+r.width])
			}
		default:
			t := gate[:r.width]
			for i := 0; i < len(wires); i += r.width {
				gw := wires[i : i+r.width]
				for k, w := range gw {
					t[k] = vals[w]
				}
				insertionSortDesc(t)
				for k, w := range gw {
					vals[w] = t[k]
				}
			}
		}
	}
}
