package baseline_test

import (
	"countnet/internal/baseline"
	"math/rand"
	"testing"

	"countnet/internal/verify"
)

// TestMergeExchangeSortsAllWidths: the 0-1 principle exhaustively up to
// width 16, randomized beyond — including every non-power-of-two width
// in range.
func TestMergeExchangeSortsAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for w := 1; w <= 16; w++ {
		n, err := baseline.MergeExchange(w)
		if err != nil {
			t.Fatalf("MergeExchange(%d): %v", w, err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("MergeExchange(%d) invalid: %v", w, err)
		}
		if w >= 2 {
			bad, err := verify.SortsZeroOne(n, 20)
			if err != nil {
				t.Fatal(err)
			}
			if bad != nil {
				t.Errorf("MergeExchange(%d) fails to sort %v", w, bad)
			}
		}
	}
	for _, w := range []int{17, 23, 30, 45, 64, 100} {
		n, err := baseline.MergeExchange(w)
		if err != nil {
			t.Fatal(err)
		}
		if bad, trial := verify.SortsRandom(n, 300, rng); bad != nil {
			t.Errorf("MergeExchange(%d) fails to sort %v (trial %d)", w, bad, trial)
		}
	}
}

// TestMergeExchangeDepth: within the t(t+1)/2 bound, equal to the
// power-of-two odd-even depth when w is a power of two.
func TestMergeExchangeDepth(t *testing.T) {
	for w := 2; w <= 64; w++ {
		n, err := baseline.MergeExchange(w)
		if err != nil {
			t.Fatal(err)
		}
		if n.Depth() > baseline.MergeExchangeDepthBound(w) {
			t.Errorf("MergeExchange(%d) depth %d > bound %d", w, n.Depth(), baseline.MergeExchangeDepthBound(w))
		}
	}
	for _, w := range []int{4, 8, 16, 32} {
		n, _ := baseline.MergeExchange(w)
		if n.Depth() != baseline.BitonicDepth(w) {
			t.Errorf("MergeExchange(%d) depth %d, want %d at power of two", w, n.Depth(), baseline.BitonicDepth(w))
		}
	}
}

// TestMergeExchangeNotCounting: like the recursive odd-even network it
// is not a counting network (checked at a width where that matters).
func TestMergeExchangeNotCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n, err := baseline.MergeExchange(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.IsCountingNetwork(n, rng); err == nil {
		t.Error("MergeExchange(6) verified as counting (unexpected)")
	}
}

// TestMergeExchangeMatchesOddEvenAtPowersOfTwo: at powers of two the
// iterative form must behave identically (as a function) to the
// recursive construction: both sort, same depth, same gate count.
func TestMergeExchangeMatchesOddEvenAtPowersOfTwo(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16} {
		me, _ := baseline.MergeExchange(w)
		oe, _ := baseline.OddEvenMergeSort(w)
		if me.Size() != oe.Size() || me.Depth() != oe.Depth() {
			t.Errorf("w=%d: merge-exchange %d gates depth %d, odd-even %d gates depth %d",
				w, me.Size(), me.Depth(), oe.Size(), oe.Depth())
		}
	}
}

func TestMergeExchangeDegenerate(t *testing.T) {
	n, err := baseline.MergeExchange(1)
	if err != nil || n.Size() != 0 {
		t.Errorf("MergeExchange(1): %v, %v", n, err)
	}
	if _, err := baseline.MergeExchange(0); err == nil {
		t.Error("width 0 accepted")
	}
}
