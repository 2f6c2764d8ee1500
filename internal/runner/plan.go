package runner

import (
	"fmt"

	"countnet/internal/baseline"
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
// Both int64 sorting engines run the compiled form one layer at a
// time, and a run of equal-width gates is one call of a kernel
// generated from internal/optnet. CompilePlan first expands every gate
// wider than maxKernelWidth into a merge-exchange network of 2-gates
// (expandWide), so every run has a kernel:
//
//   - Apply: one batch, a scalar run kernel per run, allocation-free
//     with caller-provided Scratch;
//   - ApplyBatches and SortBatches: blocks of `Lanes` batches
//     lane-interleaved (lanes.go), a lane kernel per run over the
//     whole block: AVX-512 assembly on amd64 CPUs with AVX-512F,
//     portable Go elsewhere. SortBatches hands the blocks out to
//     data-parallel workers.
//
// All of them produce output identical to ApplyComparators: element k
// of the result is the value leaving on wire OutputOrder[k], gates
// route their largest input to their first wire. The Ascending
// variants emit the same values in reverse.
type Plan struct {
	width int

	// layers[l] is layer l as runs of equal-width gates; every run's
	// wires are a window of one shared []int32.
	layers [][]gateRun

	out      []int32 // output position -> wire
	rev      []int32 // out reversed: ascending output for a sorting network
	outIdent bool

	// kern is the lane kernel table of ApplyBatches: nativeLanes.
	// Tests set it to run one table against another.
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
	net = expandWide(net)
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
	var count, fill [maxKernelWidth + 1]int
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

// NumLayers returns the number of compiled layers: the network depth,
// plus the extra layers of the merge-exchange expansion where a gate is
// wider than maxKernelWidth.
func (p *Plan) NumLayers() int { return len(p.layers) }

// expandWide returns net with every gate wider than maxKernelWidth
// replaced by the comparators of baseline.MergeExchange of its width,
// comparator (a, b) on the gate's wires (Wires[a], Wires[b]). A sorting
// network whose output k lands on the gate's wire k sorts exactly as
// the gate does, so no output changes. Gates are re-added in order,
// which is topological, and OutputOrder is kept; the expanded gate count
// is summed first, so the builder allocates its gate table once. A
// network with no wider gate is returned as is.
func expandWide(net *network.Network) *network.Network {
	if net.MaxGateWidth() <= maxKernelWidth {
		return net
	}
	sorters := make(map[int]*network.Network) // one per gate width
	size := 0
	for i := range net.Gates {
		w := net.Gates[i].Width()
		if w <= maxKernelWidth {
			size++
			continue
		}
		mx := sorters[w]
		if mx == nil {
			var err error
			if mx, err = baseline.MergeExchange(w); err != nil {
				panic(err) // unreachable: MergeExchange fails only below width 1
			}
			sorters[w] = mx
		}
		size += mx.Size()
	}
	b := network.NewBuilder(net.Width())
	b.Grow(size)
	pair := make([]int, 2)
	for _, g := range net.Gates {
		if g.Width() <= maxKernelWidth {
			b.AddValidated(g.Wires, g.Label)
			continue
		}
		for _, c := range sorters[g.Width()].Gates {
			pair[0], pair[1] = g.Wires[c.Wires[0]], g.Wires[c.Wires[1]]
			b.AddValidated(pair, g.Label)
		}
	}
	return b.Build(net.Name, net.OutputOrder)
}

// Scratch is the per-caller mutable state of plan execution: the wire
// values. A Scratch may be reused across calls but not shared between
// concurrent ones.
type Scratch struct {
	vals []int64
}

// NewScratch returns scratch sized for the plan.
func (p *Plan) NewScratch() *Scratch {
	return &Scratch{vals: make([]int64, p.width)}
}

// Apply runs one batch through the plan: src enters on wires 0..w-1 and
// dst receives the output sequence (element k is the value on wire
// OutputOrder[k], i.e. descending for a sorting network). dst and src
// must have length Width and may alias each other. With a Scratch from
// NewScratch, Apply performs no allocation; a nil Scratch allocates one.
//
//netvet:hotpath
func (p *Plan) Apply(dst, src []int64, s *Scratch) {
	vals := p.run(dst, src, s)
	if p.outIdent {
		copy(dst, vals)
		return
	}
	for k, wire := range p.out {
		dst[k] = vals[wire]
	}
}

// ApplyAscending is Apply with the output sequence reversed: ascending
// for a sorting network.
//
//netvet:hotpath
func (p *Plan) ApplyAscending(dst, src []int64, s *Scratch) {
	vals := p.run(dst, src, s)
	for k, wire := range p.rev {
		dst[k] = vals[wire]
	}
}

// run copies src into the scratch wire values and runs every layer
// over them, one call of the generated scalar kernel of the run's
// width per run. It returns the wire values.
//
//netvet:hotpath
func (p *Plan) run(dst, src []int64, s *Scratch) []int64 {
	if len(src) != p.width || len(dst) != p.width {
		panic(fmt.Sprintf("runner: plan batch %d/%d for width-%d network", len(src), len(dst), p.width))
	}
	if s == nil {
		//netvet:allow escape -- cold nil-scratch fallback; steady-state callers pass s (pinned by the zero-alloc tests)
		s = p.NewScratch()
	}
	vals := s.vals
	copy(vals, src)
	for _, layer := range p.layers {
		for _, r := range layer {
			scalarKernels[r.width](vals, r.wires, r.count)
		}
	}
	return vals
}
