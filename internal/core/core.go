// Package core implements every construction of Busch & Herlihy,
// "Sorting and Counting Networks of Small Depth and Arbitrary Width"
// (SPAA 1999):
//
//   - the two-merger network T(p,q0,q1) and the bitonic-converter
//     D(p,q) of Section 4.4,
//   - the staircase-merger S(r,p,q) of Section 4.3 in all four variants
//     (basic, basic with substituted wide balancers, and the two
//     optimized variants of Section 4.3.1),
//   - the merger M(p0..pn-1) of Section 4.2,
//   - the counting network C(p0..pn-1) of Section 4.1, generic over the
//     base-case network C(p,q),
//   - the concrete families K (Section 5.1), R(p,q) (Section 5.3) and
//     L (Section 5.2), together with their closed-form depth formulas
//     (Propositions 1, 3, 6 and Theorem 7).
//
// Everything is expressed over wire orderings: a "sequence" is an
// ordered list of wire indices, and each construction appends gates to
// a network.Builder and returns the ordering in which its output
// satisfies the step property. The networks are simultaneously sorting
// networks (comparator semantics) and counting networks (balancer
// semantics); see package runner.
package core

import (
	"fmt"

	"countnet/internal/network"
)

// BaseFunc builds a base-case counting network C(p,q) over the p*q
// wires listed in `in` (in input-sequence order) and returns the
// ordering in which the output satisfies the step property. The paper's
// Section 4 assumes such a network "is given"; Section 5 instantiates
// it as a single pq-balancer (family K) or as R(p,q) (family L).
type BaseFunc func(b *network.Builder, in []int, p, q int, label string) []int

// StaircaseKind selects the staircase-merger variant of Sections 4.3
// and 4.3.1.
type StaircaseKind int

const (
	// StaircaseOptBase is the Section 4.3.1 optimization with a final
	// layer of C(p,q): a layer of base networks, one layer of
	// 2-balancers, and a second layer of base networks.
	// depth(S) = 2d + 1. Family K uses this (d = 1, depth 3).
	StaircaseOptBase StaircaseKind = iota
	// StaircaseOptBitonic is the Section 4.3.1 optimization with a
	// final layer of bitonic-converters D(p,q) instead of base
	// networks. depth(S) = d + 3. Family L uses this.
	StaircaseOptBitonic
	// StaircaseBasic is the Section 4.3 construction: a layer of base
	// networks followed by two (or three, for odd r) layers of
	// two-mergers T(p,q,q). depth(S) <= d + 6. Its two-mergers use
	// balancers of width 2q, which may exceed max(p,q).
	StaircaseBasic
	// StaircaseBasicSub is StaircaseBasic with each width-2q balancer
	// substituted by a two-merger T(q,1,1) built from balancers of
	// width 2 and q, as described at the end of Section 4.3.
	// depth(S) <= d + 9.
	StaircaseBasicSub
)

// String names the variant.
func (k StaircaseKind) String() string {
	switch k {
	case StaircaseOptBase:
		return "opt-base(2d+1)"
	case StaircaseOptBitonic:
		return "opt-bitonic(d+3)"
	case StaircaseBasic:
		return "basic(d+6)"
	case StaircaseBasicSub:
		return "basic-sub(d+9)"
	}
	return fmt.Sprintf("StaircaseKind(%d)", int(k))
}

// Config selects the pluggable pieces of the generic construction.
type Config struct {
	// Base builds the assumed-given C(p,q). Required.
	Base BaseFunc
	// Staircase selects the staircase-merger variant.
	Staircase StaircaseKind
}

// BalancerBase is the family-K base: C(p,q) is a single balancer of
// width p*q (depth d = 1).
func BalancerBase(b *network.Builder, in []int, p, q int, label string) []int {
	b.Add(in, label)
	return in
}

// RBase is the family-L base: C(p,q) is the constant-depth network
// R(p,q) of Section 5.3, built from balancers of width at most
// max(p,q).
func RBase(b *network.Builder, in []int, p, q int, label string) []int {
	return newEnv(b, Config{}).buildR(in, p, q, label)
}

// KConfig returns the configuration of family K (Section 5.1).
func KConfig() Config {
	return Config{Base: BalancerBase, Staircase: StaircaseOptBase}
}

// LConfig returns the configuration of family L (Section 5.2).
func LConfig() Config {
	return Config{Base: RBase, Staircase: StaircaseOptBitonic}
}

// ValidateFactors checks a factorization: at least one factor, every
// factor at least 2, and a total width that fits in an int.
func ValidateFactors(factors []int) error {
	if len(factors) == 0 {
		return fmt.Errorf("core: empty factorization")
	}
	w := 1
	for i, p := range factors {
		if p < 2 {
			return fmt.Errorf("core: factor p%d = %d, want >= 2", i, p)
		}
		if int64(w) > (1<<31)/int64(p) {
			return fmt.Errorf("core: width overflow at factor p%d", i)
		}
		w *= p
	}
	return nil
}

// Product returns the product of the factors.
func Product(factors []int) int {
	w := 1
	for _, p := range factors {
		w *= p
	}
	return w
}

func factorsName(prefix string, factors []int) string {
	s := prefix + "("
	for i, p := range factors {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(p)
	}
	return s + ")"
}

// K builds the counting network K(p0,...,pn-1) of Section 5.1: width
// p0*...*pn-1, balancers of width at most max(pi*pj), and depth exactly
// 1.5n^2 - 3.5n + 2 (Proposition 6) for n >= 2. For n == 1 it is a
// single balancer.
func K(factors ...int) (*network.Network, error) {
	return build(KConfig(), factorsName("K", factors), factors)
}

// L builds the counting network L(p0,...,pn-1) of Section 5.2: width
// p0*...*pn-1, balancers of width at most max(pi), and depth at most
// 9.5n^2 - 12.5n + 3 (Theorem 7).
func L(factors ...int) (*network.Network, error) {
	return build(LConfig(), factorsName("L", factors), factors)
}

// R builds the constant-depth counting network R(p,q) of Section 5.3:
// width p*q, balancers of width at most max(p,q), depth at most 16.
func R(p, q int) (*network.Network, error) {
	if err := ValidateFactors([]int{p, q}); err != nil {
		return nil, err
	}
	b := network.NewBuilder(p * q)
	out := newEnv(b, Config{}).buildR(network.Identity(p*q), p, q, fmt.Sprintf("R(%d,%d)", p, q))
	return b.Build(fmt.Sprintf("R(%d,%d)", p, q), out), nil
}

// New builds the generic counting network C(p0,...,pn-1) of Section 4
// under the given configuration.
func New(cfg Config, factors ...int) (*network.Network, error) {
	return build(cfg, factorsName("C", factors), factors)
}

func build(cfg Config, name string, factors []int) (*network.Network, error) {
	if err := ValidateFactors(factors); err != nil {
		return nil, err
	}
	if cfg.Base == nil {
		return nil, fmt.Errorf("core: config without base network")
	}
	w := Product(factors)
	b := network.NewBuilder(w)
	out := newEnv(b, cfg).counting(network.Identity(w), factors, name)
	return b.Build(name, out), nil
}

// KDepth is the exact depth of K(p0..pn-1) from Proposition 6:
// 1.5n^2 - 3.5n + 2 for n >= 2, and 1 for n == 1.
func KDepth(n int) int {
	if n <= 1 {
		return 1
	}
	return (3*n*n - 7*n + 4) / 2
}

// LDepthBound is the depth upper bound for L(p0..pn-1) from Theorem 7:
// 9.5n^2 - 12.5n + 3 for n >= 2, and 16 for n == 1 (a single R would
// not arise, but a lone balancer certainly fits).
func LDepthBound(n int) int {
	if n <= 1 {
		return 16
	}
	return (19*n*n - 25*n + 6) / 2
}

// CDepth is Proposition 1: the depth of the generic C(p0..pn-1) given
// base depth d and staircase depth sd, for n >= 2:
// (n-1)d + (n^2/2 - 3n/2 + 1)sd.
func CDepth(n, d, sd int) int {
	if n < 2 {
		return d
	}
	return (n-1)*d + (n*n-3*n+2)/2*sd
}

// MDepth is Proposition 3: the depth of the merger M(p0..pn-1) given
// base depth d and staircase depth sd: d + (n-2)sd.
func MDepth(n, d, sd int) int {
	if n < 2 {
		return d
	}
	return d + (n-2)*sd
}

// RDepthBound is the Section 5.3 bound on depth(R(p,q)).
const RDepthBound = 16

// MaxPairProduct returns max(pi*pj) over all ordered pairs i != j —
// the balancer width bound of family K. With a single factor it
// returns that factor.
func MaxPairProduct(factors []int) int {
	if len(factors) == 1 {
		return factors[0]
	}
	// The maximum product of two distinct positions is the product of
	// the two largest factors (duplicated values occupy two positions).
	a, bst := 0, 0
	for _, p := range factors {
		if p >= a {
			bst = a
			a = p
		} else if p > bst {
			bst = p
		}
	}
	return a * bst
}

// MaxFactor returns max(pi) — the balancer width bound of family L.
func MaxFactor(factors []int) int {
	m := 0
	for _, p := range factors {
		if p > m {
			m = p
		}
	}
	return m
}
