package baseline_test

import (
	"countnet/internal/baseline"
	"math/rand"
	"testing"

	"countnet/internal/seq"
)

func TestWrappedCountsArbitraryWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 2, 3, 5, 6, 7, 9, 12, 13} {
		c, err := baseline.NewWrapped(w)
		if err != nil {
			t.Fatalf("NewWrapped(%d): %v", w, err)
		}
		for trial := 0; trial < 50; trial++ {
			c.Reset()
			tokens := make([]int64, w)
			for i := range tokens {
				tokens[i] = int64(rng.Intn(12))
			}
			counts, _ := c.Step(tokens)
			if !seq.IsStep(counts) {
				t.Fatalf("Wrapped(%d) on %v: output %v not step", w, tokens, counts)
			}
			if seq.Sum(counts) != seq.Sum(tokens) {
				t.Fatalf("Wrapped(%d): token loss", w)
			}
		}
	}
}

func TestWrappedStatePersistsAcrossSteps(t *testing.T) {
	// Two Step calls without Reset behave like one combined run: the
	// aggregated counts must still be step.
	c, err := baseline.NewWrapped(5)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Step([]int64{3, 0, 1, 0, 2})
	b, _ := c.Step([]int64{0, 4, 0, 0, 1})
	total := make([]int64, 5)
	for i := range total {
		total[i] = a[i] + b[i]
	}
	if !seq.IsStep(total) {
		t.Fatalf("accumulated counts %v not step", total)
	}
}

func TestWrappedPowerOfTwoNeverWraps(t *testing.T) {
	// When w is already a power of two there are no wrapped wires.
	c, err := baseline.NewWrapped(8)
	if err != nil {
		t.Fatal(err)
	}
	if c.InnerWidth() != 8 {
		t.Fatalf("inner width %d, want 8", c.InnerWidth())
	}
	_, mean := c.Step([]int64{5, 5, 5, 5, 5, 5, 5, 5})
	if mean != 1 {
		t.Errorf("mean passes %v, want exactly 1", mean)
	}
}

func TestWrappedTokensDoWrap(t *testing.T) {
	// At w=5 over an 8-wide inner network, enough tokens force wrapping.
	c, err := baseline.NewWrapped(5)
	if err != nil {
		t.Fatal(err)
	}
	_, mean := c.Step([]int64{20, 20, 20, 20, 20})
	if mean <= 1 {
		t.Errorf("mean passes %v, expected wrapping (> 1)", mean)
	}
}

func TestWrappedInjectSequentialValues(t *testing.T) {
	// Serial injection on one wire yields exit positions cycling
	// 0,1,...,w-1,0,... — the counter behaviour.
	c, err := baseline.NewWrapped(3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 12; k++ {
		pos, _ := c.Inject(0)
		if pos != k%3 {
			t.Fatalf("token %d exited position %d, want %d", k, pos, k%3)
		}
	}
}

func TestWrappedRejectsBadParams(t *testing.T) {
	if _, err := baseline.NewWrapped(0); err == nil {
		t.Error("width 0 accepted")
	}
	c, _ := baseline.NewWrapped(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad entry wire accepted")
			}
		}()
		c.Inject(4)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad token vector accepted")
			}
		}()
		c.Step([]int64{1})
	}()
}
