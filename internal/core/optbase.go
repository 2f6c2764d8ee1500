package core

import (
	"fmt"

	"countnet/internal/network"
	"countnet/internal/optnet"
)

// Optimal-base variants of the paper's families. The paper's Section 4
// construction is generic over the bounded-width base C(p,q); the Kopt
// and Lopt variants plug in the embedded best-known sorting networks
// of internal/optnet whenever p*q <= optnet.MaxWidth, replacing the
// single pq-balancer (family K) or the depth-16 R(p,q) (family L) in
// that slot. The substituted base trades balancer width for depth: a
// width-16 base drops from one 16-balancer to sixty 2-balancers in ten
// layers, so every gate in the construction becomes a 2-balancer (plan
// execution then runs entirely on the branchless pair fast path) at
// the cost of the extra base layers.
//
// SORTING ONLY: the embedded networks are optimal *sorting* networks,
// not counting networks, so the counting proof of Section 4 (which
// requires a counting base) does not carry over — like NewBubble and
// NewOddEvenMergeSort, the opt variants are verified under comparator
// semantics only. On 0-1 inputs balancer and comparator semantics
// coincide gate for gate, so the 0-1 principle still certifies the
// full construction as a sorting network; cmd/verifyall and the core
// tests do exactly that.

// OptBalancerBase is the family-K base with the embedded optimal
// sorter substituted: C(p,q) is the best-known width-pq sorting
// network when pq <= optnet.MaxWidth, and the single pq-balancer of
// BalancerBase otherwise.
func OptBalancerBase(b *network.Builder, in []int, p, q int, label string) []int {
	return newEnv(b, Config{Base: OptBalancerBase}).optBalancerBase(in, p, q, label)
}

// OptRBase is the family-L base with the embedded optimal sorter
// substituted: C(p,q) is the best-known width-pq sorting network when
// pq <= optnet.MaxWidth, and R(p,q) otherwise.
func OptRBase(b *network.Builder, in []int, p, q int, label string) []int {
	return newEnv(b, Config{Base: OptRBase}).optRBase(in, p, q, label)
}

// KOptConfig returns the configuration of the Kopt variant: family K's
// staircase with the optimal-sorter base.
func KOptConfig() Config {
	return Config{Base: OptBalancerBase, Staircase: StaircaseOptBase}
}

// LOptConfig returns the configuration of the Lopt variant: family L's
// staircase with the optimal-sorter base.
func LOptConfig() Config {
	return Config{Base: OptRBase, Staircase: StaircaseOptBitonic}
}

// KOpt builds the sorting network Kopt(p0,...,pn-1): family K with
// every base C(p,q) of width p*q <= optnet.MaxWidth replaced by the
// embedded optimal sorter. Every gate is then a 2-balancer as long as
// all pairwise factor products stay within optnet.MaxWidth. Sorting
// network only; see the package note above.
func KOpt(factors ...int) (*network.Network, error) {
	return build(KOptConfig(), factorsName("Kopt", factors), factors, KOptGateCount)
}

// LOpt builds the sorting network Lopt(p0,...,pn-1): family L with the
// embedded optimal sorter substituted for R(p,q) wherever it fits.
// Sorting network only; see the package note above.
func LOpt(factors ...int) (*network.Network, error) {
	return build(LOptConfig(), factorsName("Lopt", factors), factors, LOptGateCount)
}

// ROpt builds the standalone optimal-base C(p,q): the embedded sorter
// when p*q <= optnet.MaxWidth, R(p,q) otherwise. Sorting network only.
func ROpt(p, q int) (*network.Network, error) {
	if err := ValidateFactors([]int{p, q}); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("Ropt(%d,%d)", p, q)
	b := network.NewBuilder(p * q)
	b.Grow(optGates(p, q, RGateCount))
	out := newEnv(b, Config{Base: OptRBase}).optRBase(network.Identity(p*q), p, q, name)
	return b.Build(name, out), nil
}

// OptSortNetwork builds the embedded best-known sorting network of
// width w (optnet.MinWidth <= w <= optnet.MaxWidth) as a standalone
// network of 2-balancers.
func OptSortNetwork(w int) (*network.Network, error) {
	opt, ok := optnet.For(w)
	if !ok {
		return nil, fmt.Errorf("core: no embedded optimal network for width %d (have %d..%d)", w, optnet.MinWidth, optnet.MaxWidth)
	}
	name := fmt.Sprintf("Opt(%d)", w)
	b := network.NewBuilder(w)
	b.Grow(opt.Size)
	e := newEnv(b, Config{Base: OptBalancerBase})
	out := e.optSorter(network.Identity(w), name)
	return b.Build(name, out), nil
}

// optBalancerBase dispatches the Kopt base within a build env.
func (e *buildEnv) optBalancerBase(in []int, p, q int, label string) []int {
	if p*q <= optnet.MaxWidth {
		return e.optSorter(in, label)
	}
	e.b.Add(in, label)
	return in
}

// optRBase dispatches the Lopt base within a build env, so its R
// calls share the build's memo.
func (e *buildEnv) optRBase(in []int, p, q int, label string) []int {
	if p*q <= optnet.MaxWidth {
		return e.optSorter(in, label)
	}
	return e.buildR(in, p, q, label)
}

// optSorter appends the embedded width-len(in) sorting network over
// the wires `in` as one 2-balancer per comparator and returns `in`:
// gate (A,B) routes its larger value to in[A], so position 0 ends with
// the maximum — the step ordering every base function returns.
func (e *buildEnv) optSorter(in []int, label string) []int {
	n, ok := optnet.For(len(in))
	if !ok {
		panic(fmt.Sprintf("core: optSorter %q over %d wires, want %d..%d", label, len(in), optnet.MinWidth, optnet.MaxWidth))
	}
	optLabel := e.sh.label(label, "/opt")
	for _, layer := range n.Layers {
		for _, c := range layer {
			pair := [2]int{in[c.A], in[c.B]}
			e.b.Add(pair[:], optLabel)
		}
	}
	return in
}
