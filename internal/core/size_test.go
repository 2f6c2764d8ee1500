package core

import (
	"runtime"
	"testing"
)

// TestKGateCountMatchesBuiltNetworks: the recurrence must reproduce the
// builder's gate count exactly for every factorization — a structural
// check that the implementation follows the paper's recursion shape.
func TestKGateCountMatchesBuiltNetworks(t *testing.T) {
	cases := [][]int{
		{2}, {5}, {2, 2}, {3, 5}, {2, 2, 2}, {2, 3, 5}, {5, 3, 2},
		{4, 4, 4}, {2, 2, 2, 2}, {3, 3, 3, 3}, {2, 3, 4, 5},
		{2, 2, 2, 2, 2}, {5, 4, 3, 2, 2}, {2, 2, 2, 2, 2, 2}, {4, 4, 4, 4},
	}
	for _, fs := range cases {
		n, err := K(fs...)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := n.Size(), KGateCount(fs); got != want {
			t.Errorf("K%v: built %d gates, recurrence %d", fs, got, want)
		}
	}
}

// TestKMergerGatesMatchesBuilt: the merger-level recurrence too.
func TestKMergerGatesMatchesBuilt(t *testing.T) {
	for _, fs := range [][]int{{2, 2}, {2, 3, 4}, {3, 3, 3}, {2, 2, 2, 2}, {2, 3, 4, 5}} {
		m, err := MergerNetwork(KConfig(), fs...)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.Size(), kMergerGates(fs); got != want {
			t.Errorf("M%v: built %d gates, recurrence %d", fs, got, want)
		}
	}
}

// TestKStaircaseGates: and the staircase level.
func TestKStaircaseGates(t *testing.T) {
	for _, c := range [][3]int{{1, 2, 2}, {2, 2, 2}, {3, 2, 2}, {2, 3, 3}, {4, 3, 2}, {3, 3, 5}} {
		s, err := StaircaseNetwork(KConfig(), c[0], c[1], c[2])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Size(), kStaircaseGates(c[0], c[1], c[2]); got != want {
			t.Errorf("S(%d,%d,%d): built %d gates, recurrence %d", c[0], c[1], c[2], got, want)
		}
	}
}

// TestRGateCountMatchesBuilt: the R recurrence must reproduce the
// builder exactly across the structural sweep range.
func TestRGateCountMatchesBuilt(t *testing.T) {
	for p := 2; p <= 24; p++ {
		for q := 2; q <= 24; q++ {
			n, err := R(p, q)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := n.Size(), RGateCount(p, q); got != want {
				t.Errorf("R(%d,%d): built %d gates, recurrence %d", p, q, got, want)
			}
		}
	}
}

// TestLGateCountMatchesBuilt: and the full L recurrence.
func TestLGateCountMatchesBuilt(t *testing.T) {
	cases := [][]int{
		{2}, {2, 2}, {3, 5}, {2, 2, 2}, {2, 3, 5}, {5, 3, 2},
		{4, 4, 4}, {2, 2, 2, 2}, {3, 3, 2, 2}, {2, 3, 4, 5},
		{2, 2, 2, 2, 2}, {4, 4}, {3, 4, 5, 6},
	}
	for _, fs := range cases {
		n, err := L(fs...)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := n.Size(), LGateCount(fs); got != want {
			t.Errorf("L%v: built %d gates, recurrence %d", fs, got, want)
		}
	}
}

// TestKGateCountDegenerate covers the trivial arities.
func TestKGateCountDegenerate(t *testing.T) {
	if KGateCount(nil) != 0 {
		t.Error("empty factorization should have 0 gates")
	}
	if KGateCount([]int{7}) != 1 || KGateCount([]int{3, 9}) != 1 {
		t.Error("n<=2 is a single balancer")
	}
}

// TestLBuildAllocatesGatesOnce guards the presized gate table that
// Build hands over. L(3,4,5,6), the 6,362-gate network perfbench's
// sort_batch builds, allocated 1.81 MB per build while its gate table
// regrew by doubling and was copied at Build. It takes about 0.86 MB
// now; copying the table at Build again would take 1.22 MB.
func TestLBuildAllocatesGatesOnce(t *testing.T) {
	const limit = 1 << 20
	build := func() {
		if _, err := L(3, 4, 5, 6); err != nil {
			t.Fatal(err)
		}
	}
	build() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("L(3,4,5,6) allocated %d bytes, want at most %d", got, limit)
	}
}
