package core

import (
	"testing"

	"countnet/internal/optnet"
	"countnet/internal/verify"
)

var optFactorSweep = [][]int{
	{2, 2}, {2, 3}, {2, 8}, {3, 3}, {3, 5}, {4, 4},
	{2, 2, 2}, {2, 2, 3}, {2, 2, 4}, {2, 3, 4}, {3, 3, 3}, {4, 4, 4},
	{2, 2, 2, 2}, {2, 2, 2, 2, 2},
	{5, 5}, {6, 6}, // pair product beyond the table: fallback bases
}

// TestOptVariantsSort certifies every opt-base construction in the
// sweep as a sorting network (exhaustive 0-1 up to width 20,
// randomized beyond). The opt variants carry no counting guarantee —
// the embedded bases are sorting networks, not counting networks —
// so sorting is the property asserted, exactly as for the sort-only
// baselines.
func TestOptVariantsSort(t *testing.T) {
	for _, f := range optFactorSweep {
		ko, err := KOpt(f...)
		if err != nil {
			t.Fatalf("KOpt(%v): %v", f, err)
		}
		if err := verify.IsSortingNetworkSeeded(ko, 0x5eed); err != nil {
			t.Errorf("KOpt(%v): %v", f, err)
		}
		lo, err := LOpt(f...)
		if err != nil {
			t.Fatalf("LOpt(%v): %v", f, err)
		}
		if err := verify.IsSortingNetworkSeeded(lo, 0x5eed); err != nil {
			t.Errorf("LOpt(%v): %v", f, err)
		}
	}
	for _, pq := range [][2]int{{2, 2}, {2, 8}, {3, 5}, {4, 4}, {4, 5}, {5, 5}} {
		ro, err := ROpt(pq[0], pq[1])
		if err != nil {
			t.Fatalf("ROpt(%d,%d): %v", pq[0], pq[1], err)
		}
		if err := verify.IsSortingNetworkSeeded(ro, 0x5eed); err != nil {
			t.Errorf("ROpt(%d,%d): %v", pq[0], pq[1], err)
		}
	}
	for w := optnet.MinWidth; w <= optnet.MaxWidth; w++ {
		n, err := OptSortNetwork(w)
		if err != nil {
			t.Fatalf("OptSortNetwork(%d): %v", w, err)
		}
		if err := verify.IsSortingNetworkSeeded(n, 0x5eed); err != nil {
			t.Errorf("OptSortNetwork(%d): %v", w, err)
		}
		if n.Depth() != mustFor(t, w).Depth {
			t.Errorf("OptSortNetwork(%d): built depth %d, table depth %d", w, n.Depth(), mustFor(t, w).Depth)
		}
		if len(n.Gates) != cap(n.Gates) {
			t.Errorf("OptSortNetwork(%d): gate table len %d cap %d, want no spare capacity", w, len(n.Gates), cap(n.Gates))
		}
		if n.Size() != mustFor(t, w).Size {
			t.Errorf("OptSortNetwork(%d): built size %d, table size %d", w, n.Size(), mustFor(t, w).Size)
		}
		if n.MaxGateWidth() != 2 {
			t.Errorf("OptSortNetwork(%d): max gate width %d, want 2", w, n.MaxGateWidth())
		}
	}
}

func mustFor(t *testing.T, w int) *optnet.Network {
	t.Helper()
	n, ok := optnet.For(w)
	if !ok {
		t.Fatalf("optnet.For(%d) missing", w)
	}
	return n
}

// TestOptDepthBounds asserts the additive depth recursion bounds the
// built networks, and pins the measured depths of the sweep — the
// recorded depth deltas against the constant-base families.
func TestOptDepthBounds(t *testing.T) {
	// factors -> {measured KOpt depth, measured LOpt depth}. K's exact
	// depth is KDepth(n) and L's is covered by its own golden tests;
	// the deltas are visible directly: e.g. {4,4} K=1 vs KOpt=10
	// (balancer widths 16 vs 2), {4,4,4} L=39 vs LOpt=33.
	pinned := map[string][2]int{
		"K(4,4)":       {10, 10},
		"K(2,8)":       {10, 10},
		"K(3,5)":       {10, 10},
		"K(2,2,2)":     {13, 12},
		"K(2,2,4)":     {22, 18},
		"K(2,3,4)":     {30, 23},
		"K(4,4,4)":     {41, 33},
		"K(2,2,2,2)":   {30, 27},
		"K(3,3,3)":     {29, 24},
		"K(2,2,2,2,2)": {54, 48},
		"K(5,5)":       {1, 16}, // fallback: balancer / R(5,5)
		"K(6,6)":       {1, 16},
		"K(2,2,3)":     {19, 16},
	}
	for _, f := range optFactorSweep {
		ko, err := KOpt(f...)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := LOpt(f...)
		if err != nil {
			t.Fatal(err)
		}
		if kb := KOptDepthBound(f); ko.Depth() > kb {
			t.Errorf("KOpt(%v) depth %d exceeds bound %d", f, ko.Depth(), kb)
		}
		if lb := LOptDepthBound(f); lo.Depth() > lb {
			t.Errorf("LOpt(%v) depth %d exceeds bound %d", f, lo.Depth(), lb)
		}
		if want, ok := pinned[factorsName("K", f)]; ok {
			if ko.Depth() != want[0] || lo.Depth() != want[1] {
				t.Errorf("depths for %v: KOpt=%d LOpt=%d, pinned %v", f, ko.Depth(), lo.Depth(), want)
			}
		}
	}
}

// TestOptBaseGateWidths pins the headline structural win: when every
// pairwise factor product embeds, the whole Kopt network is built of
// 2-balancers, against family K's max(pi*pj) balancers.
func TestOptBaseGateWidths(t *testing.T) {
	for _, f := range [][]int{{2, 2}, {4, 4}, {2, 3, 4}, {4, 4, 4}, {2, 2, 2, 2}} {
		ko, err := KOpt(f...)
		if err != nil {
			t.Fatal(err)
		}
		if got := ko.MaxGateWidth(); got != 2 {
			t.Errorf("KOpt(%v): max gate width %d, want 2", f, got)
		}
		k, err := K(f...)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := k.MaxGateWidth(), MaxPairProduct(f); got != want {
			t.Errorf("K(%v): max gate width %d, want %d", f, got, want)
		}
	}
	// Beyond the table the base falls back to a bare balancer.
	ko, err := KOpt(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := ko.MaxGateWidth(); got != 25 {
		t.Errorf("KOpt(5,5): max gate width %d, want 25 (fallback balancer)", got)
	}
}

// TestOptMemoizedEqualsDirect pins replay correctness for the new
// base kinds: building the same construction twice (memo warm within
// one build via repeated sub-structures) must equal a gate-for-gate
// rebuild through the public BaseFunc without the env dispatch.
func TestOptMemoizedEqualsDirect(t *testing.T) {
	for _, f := range [][]int{{2, 2, 4}, {3, 3, 3}, {2, 2, 2, 2}} {
		a, err := KOpt(f...)
		if err != nil {
			t.Fatal(err)
		}
		b, err := KOpt(f...)
		if err != nil {
			t.Fatal(err)
		}
		if a.Size() != b.Size() || a.Depth() != b.Depth() {
			t.Fatalf("KOpt(%v) not deterministic: %d/%d vs %d/%d", f, a.Size(), a.Depth(), b.Size(), b.Depth())
		}
		for i := range a.Gates {
			ga, gb := &a.Gates[i], &b.Gates[i]
			if ga.Label != gb.Label || len(ga.Wires) != len(gb.Wires) {
				t.Fatalf("KOpt(%v) gate %d differs across builds", f, i)
			}
			for j := range ga.Wires {
				if ga.Wires[j] != gb.Wires[j] {
					t.Fatalf("KOpt(%v) gate %d wires differ", f, i)
				}
			}
		}
	}
	// The generic construction with the opt base as a plain Config
	// (dispatched via the recognized base kind) must equal KOpt exactly.
	n1, err := New(Config{Base: OptBalancerBase, Staircase: StaircaseOptBase}, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := KOpt(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n1.Size() != n2.Size() || n1.Depth() != n2.Depth() {
		t.Fatalf("New(opt cfg) %d/%d vs KOpt %d/%d", n1.Size(), n1.Depth(), n2.Size(), n2.Depth())
	}
}

// TestOptSortNetworkErrors covers the out-of-table widths.
func TestOptSortNetworkErrors(t *testing.T) {
	if _, err := OptSortNetwork(optnet.MaxWidth + 1); err == nil {
		t.Error("OptSortNetwork(17) should fail")
	}
	if _, err := OptSortNetwork(1); err == nil {
		t.Error("OptSortNetwork(1) should fail")
	}
	if _, err := KOpt(); err == nil {
		t.Error("KOpt() should fail")
	}
	if _, err := ROpt(1, 4); err == nil {
		t.Error("ROpt(1,4) should fail")
	}
}

// TestOptBasePositional guards the memoization contract: the base
// must be positional (gates depend only on wire positions within its
// input), which record() re-checks at runtime — a template recorded
// over one input slice must replay onto shifted wires without
// touching wires outside the construction. Building a wide network
// whose sub-blocks reuse the same template exercises exactly that.
func TestOptBasePositional(t *testing.T) {
	// Kopt(2,2,4): four copies of C(2,2) = the 4-wide sorter replay
	// across disjoint wire blocks, then mergers.
	n, err := KOpt(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.IsSortingNetworkSeeded(n, 1); err != nil {
		t.Fatal(err)
	}
	// Every gate must stay within the builder's width (record/replay
	// translation bug would show as wild wire indices).
	for i := range n.Gates {
		for _, w := range n.Gates[i].Wires {
			if w < 0 || w >= n.Width() {
				t.Fatalf("gate %d touches wire %d outside width %d", i, w, n.Width())
			}
		}
	}
}
