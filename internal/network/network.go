// Package network provides the substrate every construction in this
// repository is built on: acyclic switching networks made of p-input
// p-output gates placed on ordered sets of wires.
//
// A gate is interpreted by an execution engine (package runner) either as
// a p-comparator (synchronous sorting switch: the i-th largest input
// value leaves on the gate's i-th wire) or as a p-balancer (asynchronous
// token switch: the i-th token to enter leaves on the gate's wire
// i mod p). Because both interpretations share one structure, the
// paper's isomorphism between counting networks and sorting networks
// (Busch & Herlihy, SPAA 1999, Section 1) is literal here: the same
// Network value is run under either semantics.
//
// Networks are built with a Builder that assigns each gate to the
// earliest legal layer (one past the deepest wire it touches), so
// Network.Depth is the critical-path depth: the maximum number of gates
// traversed by any value or token.
package network

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Gate is a single p-input p-output switch on an ordered set of wires.
// Wires[0] is the gate's "north" wire: under comparator semantics it
// receives the largest input, under balancer semantics the first token.
type Gate struct {
	// ID is the gate's index in Network.Gates (topological order).
	ID int
	// Wires lists the distinct wire indices the gate touches, in gate
	// port order. len(Wires) is the gate's width.
	Wires []int
	// Layer is the gate's critical-path layer, starting at 1.
	Layer int
	// Label records the construction step that produced the gate,
	// e.g. "R(5,7)/T(4,4,3)/row2". Purely informational.
	Label string
}

// Width returns the number of wires the gate touches.
func (g *Gate) Width() int { return len(g.Wires) }

// Network is an acyclic switching network of fixed width. Gates appear
// in topological order: a value entering on any wire meets the gates on
// that wire in slice order.
type Network struct {
	// Name describes the construction, e.g. "L(2,3,5)".
	Name string
	// WireCount is the network width (same number of inputs and outputs).
	WireCount int
	// Gates holds the gates in topological order.
	Gates []Gate
	// OutputOrder maps sequence position to wire index: the network's
	// output sequence element i lives on wire OutputOrder[i]. For a
	// counting network built by package core this is the ordering in
	// which the output satisfies the step property. It is always a
	// permutation of 0..WireCount-1; identity if the construction did
	// not reorder.
	OutputOrder []int

	depth int
}

// Width returns the number of wires.
func (n *Network) Width() int { return n.WireCount }

// Depth returns the critical-path depth: the maximum number of gates on
// any wire-to-wire path, equivalently the maximum gate layer.
func (n *Network) Depth() int { return n.depth }

// Size returns the number of gates.
func (n *Network) Size() int { return len(n.Gates) }

// MaxGateWidth returns the width of the widest gate, or 0 for a
// gate-free network.
func (n *Network) MaxGateWidth() int {
	m := 0
	for i := range n.Gates {
		if w := n.Gates[i].Width(); w > m {
			m = w
		}
	}
	return m
}

// GateWidthHistogram returns a map from gate width to the number of
// gates of that width.
func (n *Network) GateWidthHistogram() map[int]int {
	h := make(map[int]int)
	for i := range n.Gates {
		h[n.Gates[i].Width()]++
	}
	return h
}

// WeightedDepth returns the critical-path latency when a width-p gate
// costs cost(p) time units instead of 1: the maximum, over all wires,
// of the summed gate costs along the wire's path. With cost ≡ 1 it
// equals Depth. This models hardware where wider comparators are slower
// (e.g. cost(p) = p for a linear-time switch, or ceil(log2 p) for a
// tree-structured one), turning the paper's depth-vs-switch-width
// trade-off into a single optimizable number.
func (n *Network) WeightedDepth(cost func(width int) int) int {
	acc := make([]int, n.WireCount)
	for i := range n.Gates {
		g := &n.Gates[i]
		c := cost(g.Width())
		m := 0
		for _, w := range g.Wires {
			if acc[w] > m {
				m = acc[w]
			}
		}
		m += c
		for _, w := range g.Wires {
			acc[w] = m
		}
	}
	d := 0
	for _, v := range acc {
		if v > d {
			d = v
		}
	}
	return d
}

// Layers groups gate indices by layer; Layers()[k] holds the IDs of the
// gates at layer k+1. Gates within a layer touch disjoint wires.
func (n *Network) Layers() [][]int {
	out := make([][]int, n.depth)
	for i := range n.Gates {
		l := n.Gates[i].Layer - 1
		out[l] = append(out[l], i)
	}
	return out
}

// Validate checks the structural invariants: wires in range, no
// duplicate wire within a gate, gates within one layer wire-disjoint,
// layers consistent with topological order, and OutputOrder a
// permutation. A Network produced by a Builder always validates; the
// check exists for deserialized or hand-built networks.
func (n *Network) Validate() error {
	if n.WireCount < 0 {
		return errors.New("network: negative width")
	}
	if len(n.OutputOrder) != n.WireCount {
		return fmt.Errorf("network: output order has %d entries, want %d", len(n.OutputOrder), n.WireCount)
	}
	seen := make([]bool, n.WireCount)
	for _, w := range n.OutputOrder {
		if w < 0 || w >= n.WireCount {
			return fmt.Errorf("network: output order wire %d out of range", w)
		}
		if seen[w] {
			return fmt.Errorf("network: output order repeats wire %d", w)
		}
		seen[w] = true
	}
	// Per wire: the depth of its last gate, and one past that gate's
	// index, so a gate finds a duplicate wire as its own stamp, with no
	// per-gate set.
	type wireState struct{ depth, stamp int }
	wires := make([]wireState, n.WireCount)
	maxLayer := 0
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.ID != i {
			return fmt.Errorf("network: gate %d has ID %d", i, g.ID)
		}
		if g.Width() < 2 {
			return fmt.Errorf("network: gate %d has width %d < 2", i, g.Width())
		}
		// One pass per gate. A layer clash is reported only after every
		// wire passed the range and duplicate checks, which take
		// precedence; the wires are distinct by then, so raising one
		// wire's depth leaves the check of the others as it was.
		layer, stamp := g.Layer, i+1
		clash, clashDepth := -1, 0
		for _, w := range g.Wires {
			if uint(w) >= uint(len(wires)) {
				return fmt.Errorf("network: gate %d touches wire %d outside width %d", i, w, n.WireCount)
			}
			ws := &wires[w]
			if ws.stamp == stamp {
				return fmt.Errorf("network: gate %d touches wire %d twice", i, w)
			}
			if layer <= ws.depth && clash < 0 {
				clash, clashDepth = w, ws.depth
			}
			ws.depth, ws.stamp = layer, stamp
		}
		if clash >= 0 {
			return fmt.Errorf("network: gate %d at layer %d but wire %d already at depth %d",
				i, layer, clash, clashDepth)
		}
		maxLayer = max(maxLayer, layer)
	}
	if maxLayer != n.depth {
		return fmt.Errorf("network: recorded depth %d, computed %d", n.depth, maxLayer)
	}
	return nil
}

// WireGates returns, for each wire, the IDs of the gates on that wire in
// topological order. This is the routing structure the asynchronous
// engine compiles from.
func (n *Network) WireGates() [][]int {
	out := make([][]int, n.WireCount)
	for i := range n.Gates {
		for _, w := range n.Gates[i].Wires {
			out[w] = append(out[w], i)
		}
	}
	return out
}

// String summarizes the network.
func (n *Network) String() string {
	name := n.Name
	if name == "" {
		name = "network"
	}
	return fmt.Sprintf("%s{width=%d depth=%d gates=%d maxGate=%d}",
		name, n.WireCount, n.depth, n.Size(), n.MaxGateWidth())
}

// Builder incrementally assembles a Network. The zero Builder is not
// usable; call NewBuilder.
type Builder struct {
	width     int
	gates     []Gate
	wireDepth []int
	// wireArena backs the Wires slices of appended gates in large
	// chunks, so a build of g gates costs O(log g) wire allocations
	// instead of g. Exhausted chunks are abandoned, not grown: gates
	// already point into them.
	wireArena []int
	err       error
}

// copyWires stores a private copy of wires in the arena.
func (b *Builder) copyWires(wires []int) []int {
	if cap(b.wireArena)-len(b.wireArena) < len(wires) {
		// Chunks scale with the gates the table still has room for, at
		// two wires each (no gate has fewer). A table presized to the
		// build's gate count so takes its wires in few chunks and
		// wastes at most the last one's tail; a table that grows by
		// doubling gets chunks that double with it.
		n := 2 * (cap(b.gates) - len(b.gates))
		if min := 2 * b.width; n < min {
			n = min
		}
		if n > 1<<16 {
			n = 1 << 16
		}
		for n < len(wires) {
			n *= 2
		}
		b.wireArena = make([]int, 0, n)
	}
	lo := len(b.wireArena)
	b.wireArena = append(b.wireArena, wires...)
	return b.wireArena[lo:len(b.wireArena):len(b.wireArena)]
}

// NewBuilder returns a Builder for a network of the given width.
func NewBuilder(width int) *Builder {
	if width < 0 {
		panic("network: negative width")
	}
	return &Builder{width: width, wireDepth: make([]int, width)}
}

// Width returns the width the Builder was created with.
func (b *Builder) Width() int { return b.width }

// GateCount returns the number of gates added so far.
func (b *Builder) GateCount() int { return len(b.gates) }

// Depth returns the current critical-path depth.
func (b *Builder) Depth() int {
	d := 0
	for _, wd := range b.wireDepth {
		if wd > d {
			d = wd
		}
	}
	return d
}

// WireDepth returns the number of gates currently on wire w's path.
func (b *Builder) WireDepth(w int) int { return b.wireDepth[w] }

// Add places a gate on the given wires at the earliest legal layer.
// Gates of width 0 or 1 are no-ops and are silently skipped (a
// one-wire "balancer" routes every token straight through). Add panics
// on out-of-range or duplicate wires: those are construction bugs.
func (b *Builder) Add(wires []int, label string) {
	if len(wires) < 2 {
		return
	}
	// Duplicate check: a linear scan beats a map allocation for the
	// narrow gates that dominate every construction.
	if len(wires) <= 16 {
		for i := 1; i < len(wires); i++ {
			for j := 0; j < i; j++ {
				if wires[i] == wires[j] {
					panic(fmt.Sprintf("network: gate %q touches wire %d twice", label, wires[i]))
				}
			}
		}
	} else {
		seen := make(map[int]bool, len(wires))
		for _, w := range wires {
			if seen[w] {
				panic(fmt.Sprintf("network: gate %q touches wire %d twice", label, w))
			}
			seen[w] = true
		}
	}
	b.AddValidated(wires, label)
}

// AddValidated is Add without the duplicate-wire check: for callers
// replaying gate lists that the builder already validated once (package
// core's construction templates). Out-of-range wires still panic.
func (b *Builder) AddValidated(wires []int, label string) {
	if len(wires) < 2 {
		return
	}
	layer := 0
	for _, w := range wires {
		if w < 0 || w >= b.width {
			panic(fmt.Sprintf("network: gate %q touches wire %d outside width %d", label, w, b.width))
		}
		if b.wireDepth[w] > layer {
			layer = b.wireDepth[w]
		}
	}
	layer++
	// Grow by doubling: the runtime's 1.25x policy for large slices
	// re-copies this hot, pointer-bearing slice far too often. The
	// table grows before the wires are copied, which size their chunks
	// by its free slots.
	if len(b.gates) == cap(b.gates) {
		b.Grow(cap(b.gates) + 16)
	}
	b.gates = append(b.gates, Gate{ID: len(b.gates), Wires: b.copyWires(wires), Layer: layer, Label: label})
	for _, w := range wires {
		b.wireDepth[w] = layer
	}
}

// Grow makes room for at least n more gates, in the manner of
// slices.Grow but to the exact size asked for. A caller that knows its
// gate count up front calls it once, so the gate table is allocated
// once and Build hands it over without a copy. The hint affects only
// speed and memory: a build that outgrows it keeps growing, and the
// network built is the same with or without it, but it pins the whole
// table, spare capacity included.
func (b *Builder) Grow(n int) {
	if cap(b.gates)-len(b.gates) < n {
		ng := make([]Gate, len(b.gates), len(b.gates)+n)
		copy(ng, b.gates)
		b.gates = ng
	}
}

// GateAt returns the wires and label of gate i (0 <= i < GateCount).
// The returned slice is the builder's own; callers must not mutate it.
func (b *Builder) GateAt(i int) ([]int, string) {
	g := &b.gates[i]
	return g.Wires, g.Label
}

// Barrier raises every listed wire to the current maximum depth among
// them without adding a gate. It is occasionally useful to force layer
// alignment when reproducing a paper's layer-exact depth accounting;
// the constructions in this repository do not need it for correctness.
func (b *Builder) Barrier(wires []int) {
	d := 0
	for _, w := range wires {
		if b.wireDepth[w] > d {
			d = b.wireDepth[w]
		}
	}
	for _, w := range wires {
		b.wireDepth[w] = d
	}
}

// Build finalizes the network. outputOrder gives the wire permutation
// in which the output sequence is read; pass nil for the identity.
// The network takes over the builder's gate table, capped at its
// length, without copying it. The Builder remains usable afterwards: a
// later Add appends past the handed-over slice's capacity, so it never
// writes into the built network.
func (b *Builder) Build(name string, outputOrder []int) *Network {
	if outputOrder == nil {
		outputOrder = make([]int, b.width)
		for i := range outputOrder {
			outputOrder[i] = i
		}
	} else {
		outputOrder = append([]int(nil), outputOrder...)
	}
	if len(outputOrder) != b.width {
		panic(fmt.Sprintf("network: output order has %d entries for width %d", len(outputOrder), b.width))
	}
	n := &Network{
		Name:        name,
		WireCount:   b.width,
		Gates:       b.gates[:len(b.gates):len(b.gates)],
		OutputOrder: outputOrder,
		depth:       b.Depth(),
	}
	return n
}

// Identity returns the identity wire ordering 0..w-1.
func Identity(w int) []int {
	out := make([]int, w)
	for i := range out {
		out[i] = i
	}
	return out
}

// DOT renders the network in Graphviz dot format, one subgraph rank per
// layer, for eyeballing small constructions against the paper's figures.
func (n *Network) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph ")
	fmt.Fprintf(&sb, "%q", sanitizeName(n.Name))
	sb.WriteString(" {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n")
	// Wire entry nodes.
	for w := 0; w < n.WireCount; w++ {
		fmt.Fprintf(&sb, "  in%d [label=\"x%d\", shape=plaintext];\n", w, w)
	}
	// Track the most recent emitter per wire.
	last := make([]string, n.WireCount)
	for w := range last {
		last[w] = fmt.Sprintf("in%d", w)
	}
	byLayer := n.Layers()
	for li, ids := range byLayer {
		fmt.Fprintf(&sb, "  { rank=same;")
		for _, id := range ids {
			fmt.Fprintf(&sb, " g%d;", id)
		}
		sb.WriteString(" }\n")
		for _, id := range ids {
			g := &n.Gates[id]
			label := fmt.Sprintf("b%d", g.Width())
			if g.Label != "" {
				label = fmt.Sprintf("%s\\n%s", label, g.Label)
			}
			fmt.Fprintf(&sb, "  g%d [label=\"%s\"];\n", id, label)
			for _, w := range g.Wires {
				fmt.Fprintf(&sb, "  %s -> g%d [label=\"w%d\", fontsize=7];\n", last[w], id, w)
				last[w] = fmt.Sprintf("g%d", id)
			}
		}
		_ = li
	}
	for pos, w := range n.OutputOrder {
		fmt.Fprintf(&sb, "  out%d [label=\"y%d\", shape=plaintext];\n", pos, pos)
		fmt.Fprintf(&sb, "  %s -> out%d [label=\"w%d\", fontsize=7];\n", last[w], pos, w)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func sanitizeName(s string) string {
	if s == "" {
		return "network"
	}
	return s
}

// ASCII renders a compact textual diagram: one line per layer listing
// the gates as wire groups. Useful in CLI output and golden tests.
func (n *Network) ASCII() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", n.String())
	for li, ids := range n.Layers() {
		fmt.Fprintf(&sb, "layer %2d:", li+1)
		sorted := append([]int(nil), ids...)
		sort.Slice(sorted, func(a, b int) bool {
			return n.Gates[sorted[a]].Wires[0] < n.Gates[sorted[b]].Wires[0]
		})
		for _, id := range sorted {
			g := &n.Gates[id]
			sb.WriteString(" [")
			for i, w := range g.Wires {
				if i > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%d", w)
			}
			sb.WriteString("]")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
