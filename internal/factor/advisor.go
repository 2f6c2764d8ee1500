package factor

// Measurement-driven factorization advisor: given an observed
// concurrency profile, recommend the L-family factorization whose
// width/depth point (the paper's Theorem 7 tradeoff) minimizes a
// contention-aware traversal cost. This replaces eyeballing the static
// tradeoff table: a measured load goes in and the factorization the
// measured crossover structure favours comes out.
//
// The cost model is deliberately coarse — a per-layer base cost plus a
// superlinear penalty once the expected tokens per balancer exceed the
// balancer's service capacity — with constants calibrated so the model
// reproduces the orderings in the committed BENCH_counter.json lanes
// (wide shallow networks win at moderate load on one word per
// balancer; finer factorizations only pay off once per-gate queueing
// dominates). It ranks candidates; it does not predict absolute
// nanoseconds.

import (
	"fmt"
	"sort"
)

// Profile is an observed (or target) load profile.
type Profile struct {
	// Concurrency is the mean number of concurrent requesters inside
	// the counter — a measured load (e.g. by Little's law), or a
	// capacity-planning target. Values < 1 are treated as 1.
	Concurrency float64
	// Block is the mean number of values drawn per request (>= 1);
	// batched draws divide per-gate contention by the block size
	// because a block reserves a whole range with one RMW per gate.
	Block float64
}

// Candidate is one factorization with the structural facts the cost
// model needs, supplied by the caller (who can build the real network
// and count gates per layer; the advisor stays free of construction
// dependencies).
type Candidate struct {
	// Factors is the factorization, coarsest first (as fed to L).
	Factors []int
	// Depth is the network's comparator depth.
	Depth int
	// LayerGates is the number of balancers in each layer.
	LayerGates []int
	// MaxWidth is the widest balancer in the network.
	MaxWidth int
}

// Recommendation is the advisor's pick.
type Recommendation struct {
	Factors   []int
	Depth     int
	MaxWidth  int
	Cost      float64 // model cost, comparable only within one Advise call
	Rationale string
}

// Model constants: a layer costs layerNs to step through uncontended;
// each balancer serves roughly one token per slotNs, and tokens beyond
// a balancer's concurrent capacity queue quadratically (cache-line
// ping-pong compounds — the shape, not the slope, is what matters for
// ranking). Calibrated against BENCH_counter.json: at g=8 the trivial
// L(16) beats L(2,2,2,2) by ~16x, while a single word saturates
// somewhere past tens of concurrent requesters.
const (
	advLayerNs   = 18.0
	advContendNs = 1.2
)

// Advise picks the candidate with the lowest modeled per-token
// traversal cost for the profile. Candidates must be non-empty; ties
// break toward smaller depth, then fewer factors, then the
// deterministic candidate order.
func Advise(p Profile, cands []Candidate) (Recommendation, error) {
	if len(cands) == 0 {
		return Recommendation{}, fmt.Errorf("factor: Advise requires at least one candidate")
	}
	conc := p.Concurrency
	if conc < 1 {
		conc = 1
	}
	block := p.Block
	if block < 1 {
		block = 1
	}
	best, bestCost := -1, 0.0
	for i, c := range cands {
		cost := modelCost(conc, block, c)
		if best < 0 || cost < bestCost-1e-9 ||
			(cost < bestCost+1e-9 && better(c, cands[best])) {
			best, bestCost = i, cost
		}
	}
	c := cands[best]
	return Recommendation{
		Factors:  append([]int(nil), c.Factors...),
		Depth:    c.Depth,
		MaxWidth: c.MaxWidth,
		Cost:     bestCost,
		Rationale: fmt.Sprintf(
			"concurrency %.1f, block %.1f: %v (depth %d, max balancer %d) minimizes modeled traversal cost %.0f (constants calibrated on BENCH_counter.json)",
			conc, block, c.Factors, c.Depth, c.MaxWidth, bestCost),
	}, nil
}

// modelCost is the per-token traversal cost: each layer's base step
// plus the queueing penalty of its expected per-balancer occupancy.
func modelCost(conc, block float64, c Candidate) float64 {
	cost := 0.0
	for _, gates := range c.LayerGates {
		if gates < 1 {
			gates = 1
		}
		// Expected concurrent tokens per balancer in this layer; block
		// draws hit each gate once per block, dividing the pressure.
		occ := conc / (float64(gates) * block)
		excess := occ - 1
		if excess < 0 {
			excess = 0
		}
		cost += advLayerNs + advContendNs*excess*excess
	}
	if len(c.LayerGates) == 0 {
		// No layer detail: approximate with depth and uniform gates.
		occ := conc / block
		excess := occ - 1
		if excess < 0 {
			excess = 0
		}
		cost = float64(c.Depth) * (advLayerNs + advContendNs*excess*excess)
	}
	return cost
}

// better is the deterministic tie-break: smaller depth, then fewer
// factors.
func better(a, b Candidate) bool {
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	return len(a.Factors) < len(b.Factors)
}

// Sweep returns recommendations across a set of concurrency points
// (deduplicated consecutive picks retain the first point they won at),
// the data behind the "recommended factorization by load" table in the
// tradeoff example and countbench -sweep output.
func Sweep(points []float64, block float64, cands []Candidate) ([]Recommendation, error) {
	sorted := append([]float64(nil), points...)
	sort.Float64s(sorted)
	out := make([]Recommendation, 0, len(sorted))
	for _, c := range sorted {
		r, err := Advise(Profile{Concurrency: c, Block: block}, cands)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
