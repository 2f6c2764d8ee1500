package core

import "countnet/internal/optnet"

// Gate-count accounting for every family, derived from the
// construction's recursive structure (the paper gives depth accounting
// only; the gate counts below follow the same recurrences and are
// verified against built networks in tests — a structural-fidelity
// check independent of depth). The builds use them to size their gate
// table exactly.
//
// They follow the recursion of cOptDepth (optdepth.go), counting every
// one of the parallel copies that depth counts once. A family is fixed
// by its base's gate count and by its staircase's count given that
// base:
//
//	C(p0)         = 1
//	C(p0,p1)      = base(p0,p1)
//	C(p0..pn-1)   = pn-1 * C(p0..pn-2) + M(p0..pn-1)
//	M(p0,p1)      = base(p0,p1)
//	M(p0..pn-1)   = pn-2 * M(p0..pn-3,pn-1) + S(prod(p0..pn-3), pn-1, pn-2)

// stairGates counts the gates of S(r,p,q) given its base's count.
type stairGates func(r, p, q, base int) int

// kStair is the optimized staircase with base finisher (families K and
// Kopt): r bases, r*floor(pq/2) 2-balancers in layer ell, and r
// finisher bases — except that a single block needs only its base.
func kStair(r, p, q, base int) int {
	if r == 1 {
		return base
	}
	return 2*r*base + r*(p*q/2)
}

// lStair is the optimized staircase with bitonic-converter finisher
// (families L and Lopt).
func lStair(r, p, q, base int) int {
	if r == 1 {
		return base
	}
	return r*base + r*(p*q/2) + r*bitonicConverterGates(p, q)
}

// balancerGates is family K's base: one pq-balancer.
func balancerGates(p, q int) int { return 1 }

// optGates is the substituted base of Kopt and Lopt: the embedded
// sorter when p*q fits the table, fallback(p,q) otherwise.
func optGates(p, q int, fallback func(p, q int) int) int {
	if n, ok := optnet.For(p * q); ok {
		return n.Size
	}
	return fallback(p, q)
}

// countingGates counts C(factors) under base and stair.
func countingGates(factors []int, base func(p, q int) int, stair stairGates) int {
	n := len(factors)
	switch n {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return base(factors[0], factors[1])
	}
	return factors[n-1]*countingGates(factors[:n-1], base, stair) + mergerGates(factors, base, stair)
}

// mergerGates counts M(factors) under base and stair.
func mergerGates(factors []int, base func(p, q int) int, stair stairGates) int {
	n := len(factors)
	if n == 2 {
		return base(factors[0], factors[1])
	}
	pn1, pn2 := factors[n-1], factors[n-2]
	var buf [32]int // a width fits an int32, so n <= 31
	sub := append(append(buf[:0], factors[:n-2]...), pn1)
	r := Product(factors[:n-2])
	return pn2*mergerGates(sub, base, stair) + stair(r, pn1, pn2, base(pn1, pn2))
}

// KGateCount returns the number of balancers in K(p0..pn-1), by the
// construction recurrence.
func KGateCount(factors []int) int { return countingGates(factors, balancerGates, kStair) }

// LGateCount returns the number of balancers in L(p0..pn-1), by the
// construction recurrence.
func LGateCount(factors []int) int { return countingGates(factors, RGateCount, lStair) }

// KOptGateCount returns the number of gates in Kopt(p0..pn-1): family
// K's recurrence with the embedded sorter's size in every base slot it
// fills.
func KOptGateCount(factors []int) int {
	return countingGates(factors, func(p, q int) int { return optGates(p, q, balancerGates) }, kStair)
}

// LOptGateCount returns the number of gates in Lopt(p0..pn-1): family
// L's recurrence with the embedded sorter's size in every base slot it
// fills and R(p,q)'s elsewhere.
func LOptGateCount(factors []int) int {
	return countingGates(factors, func(p, q int) int { return optGates(p, q, RGateCount) }, lStair)
}

// twoMergerGates counts the gates of T(p, q0, q1), honoring the same
// degenerate-case elisions as the builder (empty sides pass through,
// width-1 gates are skipped).
func twoMergerGates(p, q0, q1 int) int {
	if q0 == 0 || q1 == 0 || p == 0 {
		return 0
	}
	g := 0
	if q0+q1 >= 2 {
		g += p // row balancers
	}
	if p >= 2 {
		g += q0 + q1 // column balancers
	}
	return g
}

// bitonicConverterGates counts the gates of D(p,q).
func bitonicConverterGates(p, q int) int {
	if p == 0 || q == 0 {
		return 0
	}
	g := 0
	if q >= 2 {
		g += p
	}
	if p >= 2 {
		g += q
	}
	return g
}

// RGateCount mirrors buildR's region logic to predict the number of
// balancers in R(p,q).
func RGateCount(p, q int) int {
	m := p
	if q > m {
		m = q
	}
	ph, qh := isqrt(p), isqrt(q)
	pb, qb := p-ph*ph, q-qh*qh
	pb0, pb1 := pb/2, pb-pb/2
	qb0, qb1 := qb/2, qb-qb/2

	step := func(size int, kFactors ...int) int {
		if size <= 1 {
			return 0
		}
		if size <= m {
			return 1
		}
		return KGateCount(kFactors)
	}
	g := 0
	g += step(ph*ph*qh*qh, ph, ph, qh, qh)
	g += step(ph*ph*qb0, qb0, ph, ph)
	g += step(ph*ph*qb1, qb1, ph, ph)
	g += twoMergerGates(ph*ph, qb0, qb1)
	g += step(pb0*qh*qh, pb0, qh, qh)
	g += step(pb1*qh*qh, pb1, qh, qh)
	g += twoMergerGates(qh*qh, pb0, pb1)
	g += step(pb0 * qb0)
	g += step(pb0 * qb1)
	g += step(pb1 * qb0)
	g += step(pb1 * qb1)
	g += twoMergerGates(pb0, qb0, qb1)
	g += twoMergerGates(pb1, qb0, qb1)
	g += twoMergerGates(qb, pb0, pb1)
	g += twoMergerGates(ph*ph, qh*qh, qb)
	g += twoMergerGates(pb, qh*qh, qb)
	g += twoMergerGates(q, ph*ph, pb)
	return g
}
