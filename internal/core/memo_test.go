package core

import (
	"testing"

	"countnet/internal/network"
)

// buildWith builds the counting network of cfg over factors as build
// does, with the memo on or off, and returns it with its env.
func buildWith(t *testing.T, cfg Config, factors []int, memo bool) (*network.Network, *buildEnv) {
	t.Helper()
	if err := ValidateFactors(factors); err != nil {
		t.Fatal(err)
	}
	w := Product(factors)
	b := network.NewBuilder(w)
	e := newEnv(b, cfg)
	e.memoOK = memo
	name := factorsName("C", factors)
	return b.Build(name, e.counting(network.Identity(w), factors, name)), e
}

// sameNetwork fails unless a and b agree gate for gate: IDs, wires,
// layers and labels, and the output order.
func sameNetwork(t *testing.T, what string, a, b *network.Network) {
	t.Helper()
	if a.Size() != b.Size() || a.Depth() != b.Depth() || a.Width() != b.Width() {
		t.Fatalf("%s: %v vs %v", what, a, b)
	}
	for i := range a.Gates {
		ga, gb := &a.Gates[i], &b.Gates[i]
		if ga.ID != gb.ID || ga.Layer != gb.Layer || ga.Label != gb.Label || len(ga.Wires) != len(gb.Wires) {
			t.Fatalf("%s: gate %d differs: %+v vs %+v", what, i, *ga, *gb)
		}
		for j := range ga.Wires {
			if ga.Wires[j] != gb.Wires[j] {
				t.Fatalf("%s: gate %d wires %v vs %v", what, i, ga.Wires, gb.Wires)
			}
		}
	}
	for i := range a.OutputOrder {
		if a.OutputOrder[i] != b.OutputOrder[i] {
			t.Fatalf("%s: output order differs at %d", what, i)
		}
	}
}

// TestMemoMatchesDerivation: every network is gate-for-gate the same
// with and without the memo, for every configuration whose base the
// memo knows. Builds whose derivation meets an R record templates
// (and replay them); the others record nothing, so they never make
// the memo's map.
func TestMemoMatchesDerivation(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"K", KConfig()}, {"L", LConfig()}, {"Kopt", KOptConfig()}, {"Lopt", LOptConfig()},
		{"L-basic", Config{Base: RBase, Staircase: StaircaseBasic}},
		{"L-basicsub", Config{Base: RBase, Staircase: StaircaseBasicSub}},
	}
	cases := [][]int{
		{2}, {4, 4}, {5, 7}, {2, 3, 5}, {6, 5, 4}, {3, 4, 5, 6}, {2, 2, 2, 2, 2}, {3, 3, 2, 2},
	}
	for _, c := range configs {
		for _, fs := range cases {
			memo, e := buildWith(t, c.cfg, fs, true)
			plain, _ := buildWith(t, c.cfg, fs, false)
			sameNetwork(t, c.name+factorsName("", fs), memo, plain)
			if recorded := len(e.sh.memo) > 0; recorded != (e.sh.dear > 0 && len(fs) > 2) {
				t.Errorf("%s%v: recorded %v, met %d R", c.name, fs, recorded, e.sh.dear)
			}
		}
	}
	// The counter set-up's network records nothing at all.
	if _, e := buildWith(t, LConfig(), []int{4, 4}, true); e.sh.memo != nil {
		t.Errorf("L(4,4) made the memo map (%d templates)", len(e.sh.memo))
	}
	// L(3,4,5,6) replays most of its gates.
	if _, e := buildWith(t, LConfig(), []int{3, 4, 5, 6}, true); len(e.sh.memo) < 10 {
		t.Errorf("L(3,4,5,6) recorded %d templates, want the R shapes and their containers", len(e.sh.memo))
	}
}
