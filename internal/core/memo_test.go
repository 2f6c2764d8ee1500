package core

import (
	"testing"

	"countnet/internal/network"
	"countnet/internal/optnet"
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
// with and without the memo, for every configuration, a user base
// closure around RBase included. The memo holds exactly one template
// per distinct R(p,q) the build met without spanning it, so K and Kopt
// builds and L(4,4) never make its map.
func TestMemoMatchesDerivation(t *testing.T) {
	userR := func(b *network.Builder, in []int, p, q int, label string) []int {
		return RBase(b, in, p, q, label)
	}
	configs := []struct {
		name string
		cfg  Config
		// usesR reports whether the base builds R(p,q) over a p x q
		// block.
		usesR func(p, q int) bool
	}{
		{"K", KConfig(), func(int, int) bool { return false }},
		{"L", LConfig(), func(int, int) bool { return true }},
		{"Kopt", KOptConfig(), func(int, int) bool { return false }},
		{"Lopt", LOptConfig(), func(p, q int) bool { return p*q > optnet.MaxWidth }},
		{"L-basic", Config{Base: RBase, Staircase: StaircaseBasic}, func(int, int) bool { return true }},
		{"L-basicsub", Config{Base: RBase, Staircase: StaircaseBasicSub}, func(int, int) bool { return true }},
		// A user base builds each R in an env of its own, outside the
		// build's memo.
		{"L-userbase", Config{Base: userR, Staircase: StaircaseOptBitonic}, func(int, int) bool { return false }},
	}
	cases := [][]int{
		{2}, {4, 4}, {5, 7}, {2, 3, 5}, {6, 5, 4}, {3, 4, 5, 6}, {2, 2, 2, 2, 2}, {3, 3, 2, 2},
		{2, 2, 2, 2, 2, 2, 2, 2},
	}
	for _, c := range configs {
		for _, fs := range cases {
			memo, e := buildWith(t, c.cfg, fs, true)
			plain, _ := buildWith(t, c.cfg, fs, false)
			what := c.name + factorsName("", fs)
			sameNetwork(t, what, memo, plain)

			// The R shapes a build meets are its base calls: count
			// them with a base that wraps the configuration's.
			met := map[[2]int]bool{}
			spy := c.cfg
			spy.Base = func(b *network.Builder, in []int, p, q int, label string) []int {
				if c.usesR(p, q) && len(in) < b.Width() {
					met[[2]int{p, q}] = true
				}
				return c.cfg.Base(b, in, p, q, label)
			}
			buildWith(t, spy, fs, false)
			if len(e.sh.memo) != len(met) {
				t.Errorf("%s: memo holds %d templates, met %d distinct R shapes", what, len(e.sh.memo), len(met))
			}
			for k := range met {
				if e.sh.memo[k] == nil {
					t.Errorf("%s: R%v met but not recorded", what, k)
				}
			}
		}
	}
	// The counter set-up's network records nothing at all.
	if _, e := buildWith(t, LConfig(), []int{4, 4}, true); e.sh.memo != nil {
		t.Errorf("L(4,4) made the memo map (%d templates)", len(e.sh.memo))
	}
}
