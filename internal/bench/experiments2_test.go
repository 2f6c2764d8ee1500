package bench

import (
	"strings"
	"testing"
)

func TestE13DepthInvariantAcrossOrderings(t *testing.T) {
	tbl := E13Orderings([]int{2, 3, 4})
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d orderings, want 6", len(tbl.Rows))
	}
	kd := tbl.Rows[0][1]
	gateCounts := map[string]bool{}
	for _, row := range tbl.Rows {
		if row[1] != kd {
			t.Errorf("K depth differs across orderings: %s vs %s", row[1], kd)
		}
		gateCounts[row[2]] = true
	}
	if len(gateCounts) < 2 {
		t.Error("expected K gate counts to vary across orderings (found all equal)")
	}
	if !strings.Contains(tbl.Note, "Cheapest L ordering") {
		t.Error("note missing the BestOrdering result")
	}
}

func TestE15WrappedPaysExtraPasses(t *testing.T) {
	tbl := E15AcyclicVsWrapped()
	for _, row := range tbl.Rows {
		w, innerW := atoi(t, row[0]), atoi(t, row[3])
		mean := row[5]
		if w == innerW {
			if mean != "1.00" {
				t.Errorf("w=%d: power-of-two width should not wrap, mean passes %s", w, mean)
			}
		} else if !(mean > "1.00") { // lexicographic works for fixed %.2f >= 1
			t.Errorf("w=%d: expected mean passes > 1, got %s", w, mean)
		}
	}
}

func TestE16Shape(t *testing.T) {
	tbl := E16ArbitraryWidthSorting()
	for _, row := range tbl.Rows {
		mergeX, kd, ld := atoi(t, row[1]), atoi(t, row[3]), atoi(t, row[5])
		if kd > mergeX {
			t.Errorf("w=%s: K depth %d deeper than merge-exchange %d", row[0], kd, mergeX)
		}
		if ld > 2*mergeX {
			t.Errorf("w=%s: L depth %d more than 2x merge-exchange %d", row[0], ld, mergeX)
		}
	}
}

func TestE17TightNetworkFullyCaught(t *testing.T) {
	tbl := E17VerifierSensitivity()
	var sawBitonic bool
	for _, row := range tbl.Rows {
		if row[0] == "Bitonic[8]" {
			sawBitonic = true
			if row[2] != "24/24" || row[3] != "24/24" {
				t.Errorf("bitonic mutants not fully caught: removals %s reversals %s", row[2], row[3])
			}
		}
		if row[0] == "R(3,3)" {
			if row[2] < "19" { // at least 19/20 in fixed formatting
				t.Errorf("R(3,3) removals caught: %s", row[2])
			}
		}
	}
	if !sawBitonic {
		t.Error("bitonic row missing")
	}
}

func TestE18CostModelShapes(t *testing.T) {
	tbl := E18WeightedDepth(48)
	// Column minima carry a '*'. Unit, log2 and linear L-costs must
	// minimize at the trivial factorization (first row); the quadratic
	// minimum must NOT be the trivial factorization.
	first := tbl.Rows[0]
	for _, c := range []int{1, 2, 3} {
		if !strings.HasSuffix(first[c], "*") {
			t.Errorf("column %d: trivial factorization not minimal (%s)", c, first[c])
		}
	}
	if strings.HasSuffix(first[4], "*") {
		t.Error("quadratic cost should not favor the trivial factorization")
	}
	starred := 0
	for _, row := range tbl.Rows[1:] {
		if strings.HasSuffix(row[4], "*") {
			starred++
		}
	}
	if starred == 0 {
		t.Error("no interior factorization minimizes quadratic cost")
	}
}

// TestE14WitnessesWhereExpected pins each row's witness to the text
// committed in docs/experiments-latest.txt: none for the single
// balancer, and the exact stall, entry wires and values for each
// multi-layer network.
func TestE14WitnessesWhereExpected(t *testing.T) {
	want := map[string]string{
		"K(4)":        "none found",
		"Bitonic[4]":  "A=2 then B=0 (stalled on wires 0,0 after 1,2 steps; A on 2, B on 0)",
		"L(2,2)":      "A=2 then B=0 (stalled on wires 0,0 after 1,2 steps; A on 2, B on 0)",
		"Periodic[4]": "A=2 then B=0 (stalled on wires 0,0 after 2,3 steps; A on 0, B on 0)",
	}
	tbl := E14Linearizability()
	if len(tbl.Rows) != len(want) {
		t.Fatalf("E14 has %d rows, want %d", len(tbl.Rows), len(want))
	}
	for _, row := range tbl.Rows {
		if row[2] != want[row[0]] {
			t.Errorf("%s: witness %q, want %q", row[0], row[2], want[row[0]])
		}
	}
}
