package core

import (
	"fmt"

	"countnet/internal/network"
)

// staircase appends the staircase-merger S(r,p,q) of Section 4.3 to the
// builder. in holds the q input orderings X_0..X_{q-1}, each of length
// r*p, one after another. If each X_i carries a step sequence and
// together they satisfy the p-staircase property, the returned ordering
// of all r*p*q wires carries a step sequence.
//
// The input sequences are the columns of an (r*p) x q matrix A, which
// is partitioned into r blocks A_0..A_{r-1} of p rows each; block
// sequences are read in row-major order, and the output is A in
// row-major order, i.e. the concatenation of the final block orderings.
func (e *buildEnv) staircase(r, p, q int, in []int, label string) []int {
	if len(in) != r*p*q {
		panic(fmt.Sprintf("core: staircase %q got %d wires, want r*p*q=%d", label, len(in), r*p*q))
	}
	b, cfg := e.b, e.cfg
	pq := p * q

	// Block i, read in row-major order: element j of the block sits in
	// absolute row i*p + j/q, column j%q; column c of A is X_c. The
	// blocks lie side by side in one slice, which each layer rewrites
	// in place and which is, at the end, the output.
	blocks := e.ints(r * pq)
	block := func(i int) []int { return blocks[i*pq : (i+1)*pq : (i+1)*pq] }
	for i := 0; i < r; i++ {
		blk := block(i)
		for j := range blk {
			blk[j] = in[(j%q)*r*p+i*p+j/q]
		}
	}

	// First layer: give each block the step property with the base
	// counting network C(p,q).
	baseLabel := e.sh.label(label, "/S.base")
	for i := 0; i < r; i++ {
		blk := block(i)
		copy(blk, e.callBase(blk, p, q, baseLabel))
	}
	if r == 1 {
		// A single block: the base network already produced the step
		// property over the whole output.
		return blocks
	}

	switch cfg.Staircase {
	case StaircaseOptBase, StaircaseOptBitonic:
		// Section 4.3.1: a layer ell of 2-balancers connects the lower
		// half of each block with the upper half of the cyclically next
		// block: element pq-1-j of A_i with element j of A_{i+1 mod r},
		// first output (north) to the A_i side. Afterwards the
		// discrepancy is confined to a single block as a bitonic
		// sequence (Proposition 4).
		ell := e.sh.label(label, "/S.ell")
		var pair [2]int
		for i := 0; i < r; i++ {
			up := block(i)             // block A_i: lower half participates
			down := block((i + 1) % r) // block A_{i+1 mod r}: upper half participates
			for j := 0; j < pq/2; j++ {
				// North (the balancer's first output) is the element in the
				// lower-indexed block: A_i for interior boundaries, A_0 for
				// the cyclic wrap boundary between A_{r-1} and A_0.
				if i == r-1 {
					pair = [2]int{down[j], up[pq-1-j]}
				} else {
					pair = [2]int{up[pq-1-j], down[j]}
				}
				b.Add(pair[:], ell)
			}
		}
		// Final layer: fix the bitonic discrepancy in every block.
		if cfg.Staircase == StaircaseOptBase {
			finLabel := e.sh.label(label, "/S.fin")
			for i := 0; i < r; i++ {
				blk := block(i)
				copy(blk, e.callBase(blk, p, q, finLabel))
			}
		} else {
			dLabel := e.sh.label(label, "/S.D")
			for i := 0; i < r; i++ {
				blk := block(i)
				copy(blk, e.bitonic(p, blk, dLabel))
			}
		}

	case StaircaseBasic, StaircaseBasicSub:
		// Section 4.3: merge adjacent blocks with two-mergers T(p,q,q),
		// odd-even-transposition style over blocks, wrapping cyclically.
		sub := cfg.Staircase == StaircaseBasicSub
		tLabel := e.sh.label(label, "/S.T")
		mergePair := func(upper, lower int) {
			// The cyclic wrap pair is (A_{r-1}, A_0); globally A_0 is the
			// top block, so it takes the excess.
			if upper > lower {
				upper, lower = lower, upper
			}
			out := e.twoMerger(p, block(upper), block(lower), sub, tLabel)
			copy(block(upper), out[:pq])
			copy(block(lower), out[pq:])
		}
		// First layer: (A_0,A_1), (A_2,A_3), ...
		for i := 0; 2*i+1 < r; i++ {
			mergePair(2*i, 2*i+1)
		}
		// Second layer: (A_1,A_2), (A_3,A_4), ..., wrapping to A_0 when
		// r is even.
		for i := 0; 2*i+1 < r; i++ {
			if u, l := 2*i+1, (2*i+2)%r; u != l {
				mergePair(u, l)
			}
		}
		// Third layer for odd r: the wrap pair (A_{r-1}, A_0).
		if r%2 == 1 && r > 1 {
			mergePair(r-1, 0)
		}

	default:
		panic(fmt.Sprintf("core: unknown staircase kind %v", cfg.Staircase))
	}
	return blocks
}

// StaircaseNetwork builds a standalone S(r,p,q) under cfg. Input
// sequence X_i occupies the contiguous wires [i*r*p, (i+1)*r*p).
func StaircaseNetwork(cfg Config, r, p, q int) (*network.Network, error) {
	if r < 1 || p < 1 || q < 1 {
		return nil, fmt.Errorf("core: invalid staircase S(%d,%d,%d)", r, p, q)
	}
	if cfg.Base == nil {
		return nil, fmt.Errorf("core: config without base network")
	}
	width := r * p * q
	b := network.NewBuilder(width)
	name := fmt.Sprintf("S(%d,%d,%d)", r, p, q)
	out := newEnv(b, cfg).staircase(r, p, q, network.Identity(width), name)
	return b.Build(name, out), nil
}
