package core

import (
	"fmt"

	"countnet/internal/network"
)

// merger appends the merger network M(p0,...,pn-1) of Section 4.2.
// in holds the p(n-1) input orderings X_0..X_{p(n-1)-1}, each of
// length w(n-2) = p0*...*p(n-2), one after another. If each input
// carries a step sequence, the returned ordering of all w(n-1) wires
// carries a step sequence.
//
// For n == 2 the merger is the base network C(p0,p1). For n > 2, take
// p(n-2) copies of M(p0,..,p(n-3),p(n-1)); copy i receives the strided
// subsequences X_j[i, p(n-2)]; their outputs Y_0..Y_{p(n-2)-1} satisfy
// the p(n-1)-staircase property (Proposition 2) and are merged by the
// staircase-merger S(w(n-3), p(n-1), p(n-2)).
func (e *buildEnv) merger(factors []int, in []int, label string) []int {
	n := len(factors)
	if n < 2 {
		panic(fmt.Sprintf("core: merger %q with %d factors", label, n))
	}
	if w := Product(factors); len(in) != w {
		panic(fmt.Sprintf("core: merger %q got %d wires, want w(n-1)=%d", label, len(in), w))
	}
	if n == 2 {
		return e.callBase(in, factors[0], factors[1], e.sh.label(label, "/M.base"))
	}

	pn1 := factors[n-1] // p(n-1): number of input sequences
	pn2 := factors[n-2] // p(n-2): number of sub-merger copies

	// Sub-merger factor list: p0,...,p(n-3),p(n-1).
	var buf [32]int // a width fits an int32, so n <= 31
	subFactors := append(append(buf[:0], factors[:n-2]...), pn1)
	each := len(in) / pn1 // w(n-2): length of each input sequence
	subEach := each / pn2 // length of X_j[i, p(n-2)]
	ys := e.ints(len(in)) // Y_0..Y_{p(n-2)-1}, one after another
	for i := 0; i < pn2; i++ {
		sub := e.ints(len(in) / pn2)
		// Copy i's inputs X_0[i, p(n-2)], ..., X_{p(n-1)-1}[i, p(n-2)].
		for j := 0; j < pn1; j++ {
			x, s := in[j*each:(j+1)*each], sub[j*subEach:(j+1)*subEach]
			for k := range s {
				s[k] = x[i+k*pn2]
			}
		}
		y := ys[i*len(sub) : (i+1)*len(sub)]
		copy(y, e.merger(subFactors, sub, label))
	}

	// S(w(n-3), p(n-1), p(n-2)).
	r := Product(factors[:n-2])
	return e.staircase(r, pn1, pn2, ys, label)
}

// buildCounting appends the counting network C(p0,...,pn-1) of Section
// 4.1 over the wires `in` and returns the output ordering. For n == 1
// the network is a single balancer; for n == 2 it is the base network;
// for n > 2 it is p(n-1) copies of C(p0..p(n-2)) followed by the merger
// M(p0..p(n-1)).
func (e *buildEnv) counting(in []int, factors []int, label string) []int {
	n := len(factors)
	switch {
	case n == 0:
		panic("core: counting with no factors")
	case n == 1:
		e.b.Add(in, e.sh.label(label, "/C.balancer"))
		return in
	case n == 2:
		return e.callBase(in, factors[0], factors[1], e.sh.label(label, "/C.base"))
	}
	blockLen := len(in) / factors[n-1]
	outs := e.ints(len(in))
	for i := 0; i < len(in); i += blockLen {
		copy(outs[i:i+blockLen], e.counting(in[i:i+blockLen], factors[:n-1], label))
	}
	return e.merger(factors, outs, label)
}

// MergerNetwork builds a standalone M(p0,...,pn-1) under cfg. Input
// sequence X_i occupies the contiguous wires [i*w(n-2), (i+1)*w(n-2)).
func MergerNetwork(cfg Config, factors ...int) (*network.Network, error) {
	if err := ValidateFactors(factors); err != nil {
		return nil, err
	}
	if len(factors) < 2 {
		return nil, fmt.Errorf("core: merger needs at least two factors")
	}
	if cfg.Base == nil {
		return nil, fmt.Errorf("core: config without base network")
	}
	w := Product(factors)
	b := network.NewBuilder(w)
	name := factorsName("M", factors)
	out := newEnv(b, cfg).merger(factors, network.Identity(w), name)
	return b.Build(name, out), nil
}
