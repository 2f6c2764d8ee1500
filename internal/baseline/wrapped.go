package baseline

import (
	"fmt"

	"countnet/internal/network"
)

// Wrapped is the cyclic arbitrary-width counting scheme the paper
// attributes to Aharonson & Attiya (Section 2): take an acyclic
// counting network of the next power-of-two width W >= w and link its
// excess output wires (positions w..W-1) back to its excess input
// wires. Tokens exiting on a wrapped position re-enter and traverse
// again; tokens exiting on positions < w leave for good, and the
// distribution over those positions has the step property.
//
// The paper's construction is acyclic precisely to avoid this: wrapped
// tokens pay multiple traversals of the full network. Wrapped exists
// here as the arbitrary-width baseline for experiment E15, which
// measures that extra latency.
//
// Because the network is cyclic it cannot be a network.Network; Wrapped
// carries its own (serial-schedule) execution semantics. Serial
// injection is a legal asynchronous schedule, and by the
// schedule-independence of balancing networks (explored by
// internal/sched's TokenSystem) the quiescent exit counts are the same
// under any schedule.
type Wrapped struct {
	width int // external width w
	inner *network.Network
	// Balancer state persists across traversals within one Step run.
	state []int
	wires [][]int // per-wire gate lists of the inner network
	posOf []int   // inner wire -> output position
}

// NewWrapped builds a wrapped counting scheme of arbitrary external
// width w >= 1 over a bitonic network of width W = next power of two.
func NewWrapped(w int) (*Wrapped, error) {
	if w < 1 {
		return nil, fmt.Errorf("baseline: wrapped width %d", w)
	}
	inW := 1
	for inW < w {
		inW *= 2
	}
	inner, err := Bitonic(inW)
	if err != nil {
		return nil, err
	}
	posOf := make([]int, inW)
	for pos, wire := range inner.OutputOrder {
		posOf[wire] = pos
	}
	return &Wrapped{
		width: w,
		inner: inner,
		state: make([]int, inner.Size()),
		wires: inner.WireGates(),
		posOf: posOf,
	}, nil
}

// Width returns the external width w.
func (c *Wrapped) Width() int { return c.width }

// InnerWidth returns the power-of-two width of the underlying network.
func (c *Wrapped) InnerWidth() int { return c.inner.Width() }

// Depth returns the depth of one traversal of the inner network.
func (c *Wrapped) Depth() int { return c.inner.Depth() }

// Reset clears balancer state.
func (c *Wrapped) Reset() {
	for i := range c.state {
		c.state[i] = 0
	}
}

// route sends one token from the given inner entry wire to an output
// position of the inner network, mutating balancer state.
func (c *Wrapped) route(entry int) int {
	wire := entry
	slot := 0
	for slot < len(c.wires[wire]) {
		gid := c.wires[wire][slot]
		g := &c.inner.Gates[gid]
		i := c.state[gid]
		c.state[gid]++
		next := g.Wires[i%g.Width()]
		slot = 0
		for k, id2 := range c.wires[next] {
			if id2 == gid {
				slot = k + 1
				break
			}
		}
		wire = next
	}
	return c.posOf[wire]
}

// Inject routes one token entering on external wire e (< Width) until
// it exits on a non-wrapped position, returning that position and the
// number of full traversals the token made.
func (c *Wrapped) Inject(e int) (pos, passes int) {
	if e < 0 || e >= c.width {
		panic(fmt.Sprintf("baseline: wrapped entry %d outside width %d", e, c.width))
	}
	// External wire e maps to the inner input wire at sequence
	// position e; inner input wires are 0..W-1 in identity order.
	wire := e
	for {
		passes++
		p := c.route(wire)
		if p < c.width {
			return p, passes
		}
		wire = c.inner.OutputOrder[p] // re-enter on the wrapped wire
	}
}

// Step routes tokens[i] tokens entering on each external wire i
// (serially — a legal schedule) and returns the per-position exit
// counts over the w external outputs plus the mean number of
// traversals per token. The exit counts satisfy the step property.
func (c *Wrapped) Step(tokens []int64) (counts []int64, meanPasses float64) {
	if len(tokens) != c.width {
		panic(fmt.Sprintf("baseline: %d token counts for width-%d wrapped network", len(tokens), c.width))
	}
	counts = make([]int64, c.width)
	var totalPasses, totalTokens int64
	for wire, n := range tokens {
		for k := int64(0); k < n; k++ {
			pos, passes := c.Inject(wire)
			counts[pos]++
			totalPasses += int64(passes)
			totalTokens++
		}
	}
	if totalTokens > 0 {
		meanPasses = float64(totalPasses) / float64(totalTokens)
	}
	return counts, meanPasses
}

// Gates returns the number of balancers in the inner network.
func (c *Wrapped) Gates() int { return c.inner.Size() }
