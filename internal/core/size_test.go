package core

import (
	"runtime"
	"testing"

	"countnet/internal/network"
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
		if got, want := m.Size(), mergerGates(fs, balancerGates, kStair); got != want {
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
		if got, want := s.Size(), kStair(c[0], c[1], c[2], 1); got != want {
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

// TestOptGateCountMatchesBuilt: the Kopt and Lopt recurrences must
// reproduce the builder exactly, and the builds they size must leave no
// spare capacity in the gate table they hand over. The sweep covers
// every base slot kind: the embedded sorters (pq <= 16), the fallback
// balancer and R(p,q) (pq > 16), and mixes of the two.
func TestOptGateCountMatchesBuilt(t *testing.T) {
	cases := append([][]int{
		{2}, {7}, {4, 5}, {5, 4}, {3, 6}, {2, 2, 5}, {3, 4, 5, 6}, {2, 3, 2, 3, 2},
	}, optFactorSweep...)
	for _, fs := range cases {
		for _, c := range []struct {
			name  string
			build func(...int) (*network.Network, error)
			count func([]int) int
		}{{"Kopt", KOpt, KOptGateCount}, {"Lopt", LOpt, LOptGateCount}} {
			n, err := c.build(fs...)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := n.Size(), c.count(fs); got != want {
				t.Errorf("%s%v: built %d gates, recurrence %d", c.name, fs, got, want)
			}
			if len(n.Gates) != cap(n.Gates) {
				t.Errorf("%s%v: gate table len %d cap %d, want no spare capacity", c.name, fs, len(n.Gates), cap(n.Gates))
			}
		}
	}
	for _, pq := range [][2]int{{2, 2}, {4, 4}, {4, 5}, {5, 5}} {
		n, err := ROpt(pq[0], pq[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Gates) != cap(n.Gates) {
			t.Errorf("%s: gate table len %d cap %d, want no spare capacity", n.Name, len(n.Gates), cap(n.Gates))
		}
	}
}

// TestLOptBuildAllocatesGatesOnce guards the exact-size Lopt build.
// LOpt(3,4,5,6) allocated 1.62 MB per build while its gate table grew
// by doubling and the network kept up to half of it as spare capacity.
// Sized by LOptGateCount, with its wires in chunks sized by the gates
// still to come, it takes about 0.91 MB; the limit is 40% under 1.62 MB.
func TestLOptBuildAllocatesGatesOnce(t *testing.T) {
	const limit = 950 << 10
	build := func() {
		if _, err := LOpt(3, 4, 5, 6); err != nil {
			t.Fatal(err)
		}
	}
	build() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("LOpt(3,4,5,6) allocated %d bytes, want at most %d", got, limit)
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
