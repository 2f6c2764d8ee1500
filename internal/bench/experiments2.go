package bench

import (
	"fmt"
	"math/rand"

	"countnet/internal/baseline"
	"countnet/internal/core"
	"countnet/internal/factor"
	"countnet/internal/network"
	"countnet/internal/sched"
	"countnet/internal/verify"
)

// E13Orderings quantifies a remark in the paper's introduction: "each
// distinct ordering of a fixed set of factors also yields a different
// counting network, but all such networks have the same depth". Depth
// is indeed invariant; gate count is not — orderings differ in cost,
// and BestOrdering exploits that.
func E13Orderings(multiset []int) *Table {
	t := &Table{
		ID:    "E13",
		Title: fmt.Sprintf("factor-ordering effects for multiset %v", multiset),
		Note: "Paper (Section 1): every ordering yields a different network of the same depth.\n" +
			"Measured: depth invariant across orderings; gate count varies — a free optimization knob.",
		Header: []string{"ordering", "K depth", "K gates", "L depth", "L gates"},
	}
	for _, ord := range factor.Permutations(multiset) {
		k := mustK(ord...)
		l := mustL(ord...)
		t.AddRow(factorsString(ord), k.Depth(), k.Size(), l.Depth(), l.Size())
	}
	bestL := factor.BestOrdering(multiset, func(ord []int) int { return mustL(ord...).Size() })
	t.Note += fmt.Sprintf("\nCheapest L ordering by gate count: %s (%d gates).",
		factorsString(bestL), mustL(bestL...).Size())
	return t
}

// E14Linearizability reports the Section 6 discussion: counting
// networks are quiescently consistent but not linearizable. For each
// network sched.LinearizabilityWitness searches four-token executions
// of the real counter for a violation — an operation B that starts
// strictly after operation A finishes yet receives a smaller value —
// and the table prints the witness.
// Depth-1 networks (single balancers) admit no violation.
func E14Linearizability() *Table {
	t := &Table{
		ID:    "E14",
		Title: "Section 6: quiescent consistency without linearizability",
		Note: "A witness is an execution where B starts after A completes yet value(B) < value(A).\n" +
			"Expect: witnesses for every multi-layer network; none for a single balancer (depth 1).",
		Header: []string{"network", "depth", "witness"},
	}
	add := func(n *network.Network) {
		w, vA, vB, ok := sched.LinearizabilityWitness(n)
		cell := "none found"
		if ok {
			cell = fmt.Sprintf("A=%d then B=%d (%s)", vA, vB, w)
		}
		t.AddRow(n.Name, n.Depth(), cell)
	}
	if n, err := core.K(4); err == nil {
		add(n)
	}
	if n, err := baseline.Bitonic(4); err == nil {
		add(n)
	}
	if n, err := core.L(2, 2); err == nil {
		add(n)
	}
	if n, err := baseline.Periodic(4); err == nil {
		add(n)
	}
	return t
}

// E15AcyclicVsWrapped quantifies why the paper insists on an acyclic
// construction (Section 2: Aharonson & Attiya "construct networks of
// arbitrary width by taking a standard counting network and linking the
// excess output wires to the excess input wires, resulting in a cyclic
// network (ours is acyclic)"). The wrapped scheme makes tokens pay
// multiple traversals of a power-of-two network; L pays one traversal
// of a (deeper-per-pass but single-pass) arbitrary-width network.
func E15AcyclicVsWrapped() *Table {
	t := &Table{
		ID:    "E15",
		Title: "Section 2: acyclic L vs cyclic wrapped bitonic at arbitrary widths",
		Note: "Wrapped = bitonic of the next power of two with excess outputs fed back to inputs.\n" +
			"'effective depth' = mean traversals x inner depth (balancer visits per token).\n" +
			"Accept: wrapped tokens pay > 1 traversal whenever w is not a power of two; L pays exactly 1.",
		Header: []string{"w", "L factors", "L depth", "inner W", "inner depth", "mean passes", "wrapped eff. depth"},
	}
	for _, w := range []int{6, 10, 12, 15, 20, 24, 30} {
		fs := factor.Balanced(w, 3)
		l := mustL(fs...)
		c, err := baseline.NewWrapped(w)
		if err != nil {
			panic(err)
		}
		tokens := make([]int64, w)
		for i := range tokens {
			tokens[i] = 40
		}
		_, mean := c.Step(tokens)
		t.AddRow(w, factorsString(fs), l.Depth(), c.InnerWidth(), c.Depth(),
			fmt.Sprintf("%.2f", mean), fmt.Sprintf("%.1f", mean*float64(c.Depth())))
	}
	return t
}

// E16ArbitraryWidthSorting compares the paper's families against
// Batcher's merge-exchange network — the classical arbitrary-width
// sorting construction (the role Section 2 assigns to the Lee–Batcher
// multiway merge) — at widths that are not powers of two. Merge-exchange
// is shallower but sorts only; K and L additionally count, and K gets
// close by spending wider switches.
func E16ArbitraryWidthSorting() *Table {
	t := &Table{
		ID:    "E16",
		Title: "Section 2: arbitrary-width sorting baselines",
		Note: "MergeX = Batcher merge-exchange (2-comparators, sorts only, not counting).\n" +
			"Accept: all networks sort; only K/L count; K (wider switches) is never deeper than MergeX,\n" +
			"and L (2-comparator-comparable switch widths) stays within a small factor of MergeX while also counting.",
		Header: []string{"w", "MergeX depth", "K factors", "K depth", "K maxGate", "L depth", "L maxGate"},
	}
	for _, w := range []int{6, 12, 24, 30, 60, 120} {
		me, err := baseline.MergeExchange(w)
		if err != nil {
			panic(err)
		}
		fs := factor.Balanced(w, 3)
		k := mustK(fs...)
		l := mustL(fs...)
		t.AddRow(w, me.Depth(), factorsString(fs), k.Depth(), k.MaxGateWidth(), l.Depth(), l.MaxGateWidth())
	}
	return t
}

// E17VerifierSensitivity is a meta-experiment: mutation analysis of the
// counting battery itself. For representative networks it removes or
// reverses each gate in turn and reports how many single-fault mutants
// the battery catches. A harness that misses mutants cannot be trusted
// to certify the constructions; this table is the evidence it can.
func E17VerifierSensitivity() *Table {
	t := &Table{
		ID:    "E17",
		Title: "mutation analysis: verifier sensitivity and construction slack",
		Note: "Each gate is removed (or reversed) in turn and the battery re-run. Two readings:\n" +
			"tight networks (bitonic: every gate load-bearing) measure the verifier — expect ~100% caught;\n" +
			"family networks measure construction slack — K(2,2,2) survives most single removals because\n" +
			"its wide balancers leave redundancy (surviving mutants pass the bounded-exhaustive check, so\n" +
			"they genuinely still count). The paper's family is not gate-minimal, and this quantifies it.",
		Header: []string{"network", "gates", "removals caught", "reversals caught"},
	}
	rng := rand.New(rand.NewSource(117))
	nets := []*network.Network{}
	if n, err := core.K(2, 2, 2); err == nil {
		nets = append(nets, n)
	}
	if n, err := core.L(2, 3); err == nil {
		nets = append(nets, n)
	}
	if n, err := core.R(3, 3); err == nil {
		nets = append(nets, n)
	}
	if n, err := baseline.Bitonic(8); err == nil {
		nets = append(nets, n)
	}
	for _, n := range nets {
		rem, rev := 0, 0
		for i := 0; i < n.Size(); i++ {
			if verify.IsCountingNetwork(verify.MutateRemoveGate(n, i), rng) != nil {
				rem++
			}
			if verify.IsCountingNetwork(verify.MutateReverseGate(n, i), rng) != nil {
				rev++
			}
		}
		t.AddRow(n.Name, n.Size(),
			fmt.Sprintf("%d/%d", rem, n.Size()), fmt.Sprintf("%d/%d", rev, n.Size()))
	}
	return t
}

// E18WeightedDepth evaluates the family trade-off under hardware cost
// models where a width-p switch is not unit-cost: logarithmic (cost
// ceil(log2 p), a tree-structured switch), linear (cost p, a sequential
// switch) and quadratic (cost p^2, crossbar-style arbitration). A
// perhaps-surprising outcome: even at LINEAR switch cost the single
// wide balancer stays latency-optimal (one width-w switch costs w, and
// any decomposition's critical path costs more) — latency alone never
// justifies the family. Only superlinear switch cost (quadratic) moves
// the optimum to an interior factorization. The real-world case for
// intermediate widths is therefore contention/throughput ([9], our E9),
// plus hard constraints on available switch sizes — exactly the
// regime the paper positions the construction for.
func E18WeightedDepth(width int) *Table {
	t := &Table{
		ID:    "E18",
		Title: fmt.Sprintf("family latency under switch-cost models, width %d", width),
		Note: "Costs per width-p switch: unit 1, log2 ceil(log2 p), linear p, quad p^2.\n" +
			"'*' marks each column's minimum. Accept: unit/log2/linear minimize at the trivial\n" +
			"factorization; quadratic cost moves the optimum to an interior factorization.",
		Header: []string{"factorization", "L unit", "L log2", "L linear", "L quad", "K unit", "K linear"},
	}
	unit := func(int) int { return 1 }
	linear := func(p int) int { return p }
	quad := func(p int) int { return p * p }
	logCost := func(p int) int {
		c := 0
		for 1<<uint(c) < p {
			c++
		}
		if c == 0 {
			c = 1
		}
		return c
	}
	type row struct {
		name string
		vals [6]int
	}
	var rows []row
	for _, fs := range factor.Factorizations(width, 2) {
		l := mustL(fs...)
		k := mustK(fs...)
		rows = append(rows, row{factorsString(fs), [6]int{
			l.WeightedDepth(unit), l.WeightedDepth(logCost), l.WeightedDepth(linear), l.WeightedDepth(quad),
			k.WeightedDepth(unit), k.WeightedDepth(linear),
		}})
	}
	var mins [6]int
	for c := 0; c < 6; c++ {
		mins[c] = rows[0].vals[c]
		for _, r := range rows[1:] {
			if r.vals[c] < mins[c] {
				mins[c] = r.vals[c]
			}
		}
	}
	for _, r := range rows {
		cells := make([]interface{}, 0, 7)
		cells = append(cells, r.name)
		for c := 0; c < 6; c++ {
			s := fmt.Sprint(r.vals[c])
			if r.vals[c] == mins[c] {
				s += "*"
			}
			cells = append(cells, s)
		}
		t.AddRow(cells...)
	}
	return t
}
