package core

import (
	"fmt"
)

// isqrt returns the integer square root floor(sqrt(n)) for n >= 0.
func isqrt(n int) int {
	if n < 0 {
		panic("core: isqrt of negative")
	}
	x := n
	if x > 1 {
		// Newton's method on integers converges in a handful of steps
		// for the widths that arise here.
		y := (x + 1) / 2
		for y < x {
			x = y
			y = (x + n/x) / 2
		}
	}
	return x
}

// buildR appends the counting network R(p,q) of Section 5.3 over the
// p*q wires `in` (p, q >= 2) and returns the output ordering: a
// constant-depth (<= 16) counting network built only from balancers of
// width at most max(p,q).
//
// Construction: with phat = floor(sqrt(p)), pbar = p - phat^2 (and
// likewise for q), arrange the input as a p x q matrix and divide it
// into quadrants
//
//	A (phat^2 x qhat^2)  B (phat^2 x qbar)
//	C (pbar   x qhat^2)  D (pbar   x qbar)
//
// A gains the step property via K(phat,phat,qhat,qhat); B and C are
// halved, stepped with three-factor K networks, and two-merged; D is
// quartered into single balancers and two-merged; finally two-mergers
// combine A'B', C'D' and the two halves. Appendix equations 1-3
// guarantee every balancer has width at most max(p,q). Degenerate
// regions (width 0 or 1, or small enough for one balancer) collapse to
// nothing or a single balancer, which can only reduce depth.
func (e *buildEnv) buildR(in []int, p, q int, label string) []int {
	if !e.memoOK {
		return e.deriveR(in, p, q, label)
	}
	sh := e.sh
	key := [2]int{p, q}
	if t := sh.memo[key]; t != nil {
		return e.replay(t, in, label)
	}
	g0 := e.b.GateCount()
	out := e.deriveR(in, p, q, label)
	// An R over every wire of the build leaves nothing to replay it.
	if len(in) < e.b.Width() {
		// Recording is cheap: the derivation went straight into the
		// real builder, and its gates are translated to input-local
		// positions after the fact.
		if t := e.record(g0, in, out, label); t != nil {
			sh.memo[key] = t
		}
	}
	return out
}

// deriveR derives R(p,q) gate by gate; buildR memoizes around it.
func (e *buildEnv) deriveR(in []int, p, q int, label string) []int {
	if p < 2 || q < 2 {
		panic(fmt.Sprintf("core: R(%d,%d) requires p,q >= 2", p, q))
	}
	if len(in) != p*q {
		panic(fmt.Sprintf("core: R(%d,%d) over %d wires", p, q, len(in)))
	}
	b := e.b
	m := p
	if q > m {
		m = q
	}

	ph := isqrt(p)
	pb := p - ph*ph
	qh := isqrt(q)
	qb := q - qh*qh
	pb0, pb1 := pb/2, pb-pb/2
	qb0, qb1 := qb/2, qb-qb/2

	// region lists the wires of rows [r0,r1) x cols [c0,c1) of the
	// p x q row-major arrangement of `in`, in row-major order.
	region := func(r0, r1, c0, c1 int) []int {
		out := e.ints((r1 - r0) * (c1 - c0))
		i := 0
		for r := r0; r < r1; r++ {
			for c := c0; c < c1; c++ {
				out[i] = in[r*q+c]
				i++
			}
		}
		return out
	}

	// step gives a region the step property: a single balancer when it
	// fits within the width budget, otherwise the K network with the
	// given factors (all guaranteed >= 2 exactly when the region is too
	// large for one balancer; see the appendix equations).
	step := func(wires []int, kFactors []int, what string) []int {
		if len(wires) <= 1 {
			return wires
		}
		if len(wires) <= m {
			b.Add(wires, e.sh.label(label, "/", what, ".bal"))
			return wires
		}
		for _, f := range kFactors {
			if f < 2 {
				// A copy: printing kFactors itself would move every
				// call's factor list to the heap.
				panic(fmt.Sprintf("core: R(%d,%d) region %s of size %d needs K%v with factor < 2",
					p, q, what, len(wires), append([]int(nil), kFactors...)))
			}
		}
		return e.kView().counting(wires, kFactors, e.sh.label(label, "/", what, ".K"))
	}

	// merge two-merges x0 and x1 under label+suffix. Most merges of a
	// small R have an empty side and pass the other through, so the
	// label is composed only for a real one.
	merge := func(p int, x0, x1 []int, suffix string) []int {
		if len(x0) == 0 {
			return x1
		}
		if len(x1) == 0 {
			return x0
		}
		return e.twoMerger(p, x0, x1, false, e.sh.label(label, suffix))
	}

	// Quadrant A: phat^2 x qhat^2 via K(phat,phat,qhat,qhat).
	aOut := step(region(0, ph*ph, 0, qh*qh), []int{ph, ph, qh, qh}, "A")

	// Quadrant B: phat^2 x qbar, split by columns into B0 | B1.
	b0Out := step(region(0, ph*ph, qh*qh, qh*qh+qb0), []int{qb0, ph, ph}, "B0")
	b1Out := step(region(0, ph*ph, qh*qh+qb0, q), []int{qb1, ph, ph}, "B1")
	bOut := merge(ph*ph, b0Out, b1Out, "/T.B")

	// Quadrant C: pbar x qhat^2, split by rows into C0 / C1.
	c0Out := step(region(ph*ph, ph*ph+pb0, 0, qh*qh), []int{pb0, qh, qh}, "C0")
	c1Out := step(region(ph*ph+pb0, p, 0, qh*qh), []int{pb1, qh, qh}, "C1")
	cOut := merge(qh*qh, c0Out, c1Out, "/T.C")

	// Quadrant D: pbar x qbar, quartered; each quarter fits in a single
	// balancer (appendix equation 3).
	d00 := step(region(ph*ph, ph*ph+pb0, qh*qh, qh*qh+qb0), nil, "D00")
	d01 := step(region(ph*ph, ph*ph+pb0, qh*qh+qb0, q), nil, "D01")
	d10 := step(region(ph*ph+pb0, p, qh*qh, qh*qh+qb0), nil, "D10")
	d11 := step(region(ph*ph+pb0, p, qh*qh+qb0, q), nil, "D11")
	dTop := merge(pb0, d00, d01, "/T.D0")
	dBot := merge(pb1, d10, d11, "/T.D1")
	dOut := merge(qb, dTop, dBot, "/T.D")

	// Merge A'B' and C'D', then the halves.
	abOut := merge(ph*ph, aOut, bOut, "/T.AB")
	cdOut := merge(pb, cOut, dOut, "/T.CD")
	return merge(q, abOut, cdOut, "/T.fin")
}
