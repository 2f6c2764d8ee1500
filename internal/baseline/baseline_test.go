package baseline_test

import (
	"countnet/internal/baseline"
	"math/rand"
	"testing"

	"countnet/internal/verify"
)

func TestPowerOfTwoHelpers(t *testing.T) {
	for _, w := range []int{1, 2, 4, 1024} {
		if !baseline.IsPowerOfTwo(w) {
			t.Errorf("IsPowerOfTwo(%d) = false", w)
		}
	}
	for _, w := range []int{0, -2, 3, 6, 12, 1000} {
		if baseline.IsPowerOfTwo(w) {
			t.Errorf("IsPowerOfTwo(%d) = true", w)
		}
	}
	if baseline.Log2(1) != 0 || baseline.Log2(2) != 1 || baseline.Log2(64) != 6 {
		t.Error("Log2 wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Log2(3) should panic")
			}
		}()
		baseline.Log2(3)
	}()
}

func TestBitonicIsCountingAndSorting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{2, 4, 8, 16, 32, 64} {
		n, err := baseline.Bitonic(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("Bitonic(%d): %v", w, err)
		}
		if n.Depth() != baseline.BitonicDepth(w) {
			t.Errorf("Bitonic(%d) depth %d, want %d", w, n.Depth(), baseline.BitonicDepth(w))
		}
		if n.MaxGateWidth() != 2 {
			t.Errorf("Bitonic(%d) has a gate of width %d", w, n.MaxGateWidth())
		}
		if err := verify.IsCountingNetwork(n, rng); err != nil {
			t.Errorf("Bitonic(%d): %v", w, err)
		}
		if err := verify.IsSortingNetwork(n, rng); err != nil {
			t.Errorf("Bitonic(%d): %v", w, err)
		}
	}
}

func TestBitonicGateCount(t *testing.T) {
	// Bitonic[2^k] has (k(k+1)/2) * w/2 gates.
	for _, w := range []int{4, 8, 16} {
		n, _ := baseline.Bitonic(w)
		k := baseline.Log2(w)
		want := k * (k + 1) / 2 * w / 2
		if n.Size() != want {
			t.Errorf("Bitonic(%d) has %d gates, want %d", w, n.Size(), want)
		}
	}
}

// TestGateCounts pins the closed-form gate counts the constructors
// presize their builders with.
func TestGateCounts(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		k := baseline.Log2(w)
		oe, _ := baseline.OddEvenMergeSort(w)
		if want := (k*k-k+4)*w/4 - 1; oe.Size() != want {
			t.Errorf("OddEven(%d) has %d gates, want %d", w, oe.Size(), want)
		}
		pe, _ := baseline.Periodic(w)
		if want := k * k * w / 2; pe.Size() != want {
			t.Errorf("Periodic(%d) has %d gates, want %d", w, pe.Size(), want)
		}
		for blocks := 0; blocks <= k; blocks++ {
			pb, _ := baseline.PeriodicBlocks(w, blocks)
			if want := blocks * k * w / 2; pb.Size() != want {
				t.Errorf("PeriodicBlocks(%d, %d) has %d gates, want %d", w, blocks, pb.Size(), want)
			}
		}
	}
	for w := 1; w <= 9; w++ {
		bu, _ := baseline.Bubble(w)
		oet, _ := baseline.OddEvenTransposition(w)
		if want := w * (w - 1) / 2; bu.Size() != want || oet.Size() != want {
			t.Errorf("width %d: Bubble %d gates, OET %d gates, want %d", w, bu.Size(), oet.Size(), want)
		}
	}
}

func TestPeriodicIsCountingAndSorting(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range []int{2, 4, 8, 16, 32} {
		n, err := baseline.Periodic(w)
		if err != nil {
			t.Fatal(err)
		}
		if n.Depth() != baseline.PeriodicDepth(w) {
			t.Errorf("Periodic(%d) depth %d, want %d", w, n.Depth(), baseline.PeriodicDepth(w))
		}
		if err := verify.IsCountingNetwork(n, rng); err != nil {
			t.Errorf("Periodic(%d): %v", w, err)
		}
		if err := verify.IsSortingNetwork(n, rng); err != nil {
			t.Errorf("Periodic(%d): %v", w, err)
		}
	}
}

func TestPeriodicBlocksNegativeControl(t *testing.T) {
	// A truncated periodic network is not a counting network: this is
	// the sanity check that our counting verifier can fail.
	rng := rand.New(rand.NewSource(3))
	n, err := baseline.PeriodicBlocks(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.IsCountingNetwork(n, rng); err == nil {
		t.Error("one block of Periodic(8) verified as a counting network")
	}
	full, _ := baseline.PeriodicBlocks(8, 3)
	if err := verify.IsCountingNetwork(full, rng); err != nil {
		t.Errorf("three blocks of Periodic(8): %v", err)
	}
}

func TestOddEvenSortsButDoesNotCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, w := range []int{4, 8, 16} {
		n, err := baseline.OddEvenMergeSort(w)
		if err != nil {
			t.Fatal(err)
		}
		if n.Depth() != baseline.BitonicDepth(w) {
			t.Errorf("OddEven(%d) depth %d, want %d", w, n.Depth(), baseline.BitonicDepth(w))
		}
		if err := verify.IsSortingNetwork(n, rng); err != nil {
			t.Errorf("OddEven(%d) does not sort: %v", w, err)
		}
		if err := verify.IsCountingNetwork(n, rng); err == nil {
			t.Errorf("OddEven(%d) unexpectedly verified as counting", w)
		}
	}
}

func TestBubbleFigure3(t *testing.T) {
	// The paper's Figure 3 counterexample: sorts, does not count.
	rng := rand.New(rand.NewSource(5))
	for _, w := range []int{3, 4, 5, 6} {
		n, err := baseline.Bubble(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.IsSortingNetwork(n, rng); err != nil {
			t.Errorf("Bubble(%d) does not sort: %v", w, err)
		}
		if err := verify.IsCountingNetwork(n, rng); err == nil {
			t.Errorf("Bubble(%d) unexpectedly verified as counting", w)
		}
		if w >= 2 && n.Depth() != 2*w-3 {
			t.Errorf("Bubble(%d) depth %d, want %d", w, n.Depth(), 2*w-3)
		}
	}
}

func TestBubbleTrivialWidths(t *testing.T) {
	n, err := baseline.Bubble(1)
	if err != nil || n.Size() != 0 {
		t.Errorf("Bubble(1): %v %v", n, err)
	}
	if _, err := baseline.Bubble(0); err == nil {
		t.Error("Bubble(0) accepted")
	}
}

func TestOddEvenTransposition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, w := range []int{2, 3, 5, 8} {
		n, err := baseline.OddEvenTransposition(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.IsSortingNetwork(n, rng); err != nil {
			t.Errorf("OET(%d) does not sort: %v", w, err)
		}
		want := w
		if w == 2 {
			want = 1 // the odd layer is empty at width 2
		}
		if n.Depth() != want {
			t.Errorf("OET(%d) depth %d, want %d", w, n.Depth(), want)
		}
	}
}

func TestNonPowerOfTwoRejected(t *testing.T) {
	if _, err := baseline.Bitonic(12); err == nil {
		t.Error("Bitonic(12) accepted")
	}
	if _, err := baseline.Periodic(3); err == nil {
		t.Error("Periodic(3) accepted")
	}
	if _, err := baseline.OddEvenMergeSort(6); err == nil {
		t.Error("OddEven(6) accepted")
	}
	if _, err := baseline.PeriodicBlocks(6, 1); err == nil {
		t.Error("PeriodicBlocks(6,1) accepted")
	}
}
