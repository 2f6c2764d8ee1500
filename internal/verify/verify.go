// Package verify provides the correctness machinery used throughout the
// repository: the 0-1 principle for sorting networks, bounded-exhaustive
// and randomized step-property checks for counting networks, structural
// bound checks, and the counting-to-sorting isomorphism of Section 1 of
// the paper.
package verify

import (
	"fmt"
	"math/rand"

	"countnet/internal/network"
	"countnet/internal/runner"
	"countnet/internal/seq"
)

// SortsZeroOne exhaustively applies the 0-1 principle: a comparator
// network sorts every input iff it sorts every 0/1 input. For width w
// this tests all 2^w batches; it refuses widths above maxWidth (use
// SortsRandom beyond that). It returns the first failing input, or nil.
func SortsZeroOne(net *network.Network, maxWidth int) (failing []int64, err error) {
	w := net.Width()
	if w > maxWidth {
		return nil, fmt.Errorf("verify: width %d exceeds exhaustive limit %d", w, maxWidth)
	}
	in := make([]int64, w)
	for mask := 0; mask < 1<<uint(w); mask++ {
		for i := 0; i < w; i++ {
			if mask&(1<<uint(i)) != 0 {
				in[i] = 1
			} else {
				in[i] = 0
			}
		}
		out := runner.ApplyComparators(net, in)
		if !sortedDesc(out) {
			return append([]int64(nil), in...), nil
		}
	}
	return nil, nil
}

// SortsRandom applies trials random permutations of 0..w-1 plus random
// multisets and checks the output is sorted (descending, per the step
// orientation). It returns the first failing input and its 0-based
// trial index (so callers can report a one-line repro: same rng seed,
// same trial, same input), or (nil, -1).
func SortsRandom(net *network.Network, trials int, rng *rand.Rand) ([]int64, int) {
	w := net.Width()
	in := make([]int64, w)
	for t := 0; t < trials; t++ {
		if t%2 == 0 {
			perm := rng.Perm(w)
			for i := range in {
				in[i] = int64(perm[i])
			}
		} else {
			for i := range in {
				in[i] = int64(rng.Intn(w/2 + 1))
			}
		}
		out := runner.ApplyComparators(net, in)
		if !sortedDesc(out) {
			return append([]int64(nil), in...), t
		}
	}
	return nil, -1
}

func sortedDesc(x []int64) bool {
	for i := 1; i < len(x); i++ {
		if x[i-1] < x[i] {
			return false
		}
	}
	return true
}

// CountsExhaustive checks the step property of the output for every
// input token assignment with per-wire counts in [0, maxPerWire]. The
// number of cases is (maxPerWire+1)^w, so this is for small widths.
// It returns the first failing input, or nil.
func CountsExhaustive(net *network.Network, maxPerWire int) []int64 {
	w := net.Width()
	in := make([]int64, w)
	stepper := runner.NewStepper(net)
	for {
		out := stepper.Step(in)
		if !seq.IsStep(out) {
			return append([]int64(nil), in...)
		}
		// Odometer increment.
		i := 0
		for i < w {
			in[i]++
			if in[i] <= int64(maxPerWire) {
				break
			}
			in[i] = 0
			i++
		}
		if i == w {
			return nil
		}
	}
}

// CountsRandom checks the step property on trials random inputs with
// per-wire counts in [0, maxPerWire], mixing sparse, dense and skewed
// distributions. It returns the first failing input and its 0-based
// trial index (for one-line repros), or (nil, -1).
func CountsRandom(net *network.Network, trials, maxPerWire int, rng *rand.Rand) ([]int64, int) {
	w := net.Width()
	in := make([]int64, w)
	stepper := runner.NewStepper(net)
	for t := 0; t < trials; t++ {
		switch t % 4 {
		case 0: // uniform
			for i := range in {
				in[i] = int64(rng.Intn(maxPerWire + 1))
			}
		case 1: // sparse
			for i := range in {
				in[i] = 0
			}
			for k := 0; k < w/2+1; k++ {
				in[rng.Intn(w)] += int64(rng.Intn(maxPerWire + 1))
			}
		case 2: // single hot wire
			for i := range in {
				in[i] = 0
			}
			in[rng.Intn(w)] = int64(rng.Intn(maxPerWire*w + 1))
		case 3: // heavy uniform
			base := int64(rng.Intn(maxPerWire + 1))
			for i := range in {
				in[i] = base + int64(rng.Intn(maxPerWire+1))
			}
		}
		out := stepper.Step(in)
		if !seq.IsStep(out) {
			return append([]int64(nil), in...), t
		}
	}
	return nil, -1
}

// IsCountingNetwork runs a practical battery: bounded-exhaustive token
// checks for tiny widths plus randomized checks, and cross-checks the
// quiescent engine against the serial token simulator on one input.
// It returns a descriptive error for the first violation found.
//
// (Deciding the counting property exactly is infeasible in general —
// the input space is unbounded — but this battery reliably catches
// construction mistakes: the Figure 3 bubble-sort network, which sorts
// but does not count, fails it immediately.)
func IsCountingNetwork(net *network.Network, rng *rand.Rand) error {
	w := net.Width()
	if w <= 6 {
		if bad := CountsExhaustive(net, 4); bad != nil {
			return fmt.Errorf("verify: step property fails on token input %v", bad)
		}
	} else if w <= 10 {
		if bad := CountsExhaustive(net, 2); bad != nil {
			return fmt.Errorf("verify: step property fails on token input %v", bad)
		}
	}
	trials := 400
	if w > 256 {
		trials = 100
	}
	if bad, trial := CountsRandom(net, trials, 3*w, rng); bad != nil {
		return fmt.Errorf("verify: step property fails on token input %v (random trial %d)", bad, trial)
	}
	// Cross-check quiescent transfer against serial token simulation.
	perWire := 3
	tokens := make([]int, 0, w*perWire)
	counts := make([]int64, w)
	for k := 0; k < w*perWire; k++ {
		wire := rng.Intn(w)
		tokens = append(tokens, wire)
		counts[wire]++
	}
	serial, _ := runner.ApplyTokensSerial(net, tokens)
	quiesced := runner.ApplyTokens(net, counts)
	for i := range serial {
		if serial[i] != quiesced[i] {
			return fmt.Errorf("verify: serial simulation disagrees with quiescent transfer at position %d: %d vs %d",
				i, serial[i], quiesced[i])
		}
	}
	if !seq.IsStep(serial) {
		return fmt.Errorf("verify: serial execution output %v lacks step property", serial)
	}
	return nil
}

// IsSortingNetwork runs the sorting battery: exhaustive 0-1 up to
// width 20, randomized beyond.
func IsSortingNetwork(net *network.Network, rng *rand.Rand) error {
	if net.Width() <= 20 {
		bad, err := SortsZeroOne(net, 20)
		if err != nil {
			return err
		}
		if bad != nil {
			return fmt.Errorf("verify: fails to sort 0-1 input %v", bad)
		}
		return nil
	}
	if bad, trial := SortsRandom(net, 200, rng); bad != nil {
		return fmt.Errorf("verify: fails to sort input %v (random trial %d)", bad, trial)
	}
	return nil
}

// IsCountingNetworkSeeded is IsCountingNetwork over a freshly seeded
// generator; any failure carries the seed, so the error message alone
// is a one-line repro (same seed, same trial, same input).
func IsCountingNetworkSeeded(net *network.Network, seed int64) error {
	if err := IsCountingNetwork(net, rand.New(rand.NewSource(seed))); err != nil {
		return fmt.Errorf("%w (repro: seed=%d)", err, seed)
	}
	return nil
}

// IsSortingNetworkSeeded is IsSortingNetwork with seed-carrying
// failure messages; see IsCountingNetworkSeeded.
func IsSortingNetworkSeeded(net *network.Network, seed int64) error {
	if err := IsSortingNetwork(net, rand.New(rand.NewSource(seed))); err != nil {
		return fmt.Errorf("%w (repro: seed=%d)", err, seed)
	}
	return nil
}

// CrossCheck exploits uniqueness of the step distribution: for a given
// total of tokens, every counting network of the same width must emit
// the *identical* output vector. It feeds the same random inputs to all
// networks and reports the first disagreement or non-step output. All
// networks must share one width.
func CrossCheck(nets []*network.Network, trials int, rng *rand.Rand) error {
	if len(nets) < 2 {
		return nil
	}
	w := nets[0].Width()
	for _, n := range nets[1:] {
		if n.Width() != w {
			return fmt.Errorf("verify: width mismatch %d vs %d", n.Width(), w)
		}
	}
	in := make([]int64, w)
	for t := 0; t < trials; t++ {
		for i := range in {
			in[i] = int64(rng.Intn(4 * w))
		}
		ref := runner.ApplyTokens(nets[0], in)
		if !seq.IsStep(ref) {
			return fmt.Errorf("verify: %s not step on %v", nets[0].Name, in)
		}
		for _, n := range nets[1:] {
			out := runner.ApplyTokens(n, in)
			for i := range out {
				if out[i] != ref[i] {
					return fmt.Errorf("verify: %s and %s disagree on input %v: %v vs %v",
						nets[0].Name, n.Name, in, ref, out)
				}
			}
		}
	}
	return nil
}

// MutateRemoveGate returns a copy of the network with gate `idx`
// removed — a standard single-fault mutant for gauging verifier
// sensitivity.
func MutateRemoveGate(n *network.Network, idx int) *network.Network {
	b := network.NewBuilder(n.Width())
	for i := range n.Gates {
		if i == idx {
			continue
		}
		b.Add(n.Gates[i].Wires, n.Gates[i].Label)
	}
	return b.Build(n.Name+"-del", n.OutputOrder)
}

// MutateReverseGate returns a copy with gate `idx`'s wire order
// reversed, flipping which wire receives the excess at that balancer.
func MutateReverseGate(n *network.Network, idx int) *network.Network {
	b := network.NewBuilder(n.Width())
	for i := range n.Gates {
		wires := append([]int(nil), n.Gates[i].Wires...)
		if i == idx {
			for a, z := 0, len(wires)-1; a < z; a, z = a+1, z-1 {
				wires[a], wires[z] = wires[z], wires[a]
			}
		}
		b.Add(wires, n.Gates[i].Label)
	}
	return b.Build(n.Name+"-rev", n.OutputOrder)
}

// CheckBalancerWidth verifies every gate has width at most bound.
func CheckBalancerWidth(net *network.Network, bound int) error {
	for i := range net.Gates {
		if w := net.Gates[i].Width(); w > bound {
			return fmt.Errorf("verify: gate %d (%s) has width %d > bound %d",
				i, net.Gates[i].Label, w, bound)
		}
	}
	return nil
}

// CheckDepth verifies the network depth is at most bound.
func CheckDepth(net *network.Network, bound int) error {
	if d := net.Depth(); d > bound {
		return fmt.Errorf("verify: depth %d > bound %d", d, bound)
	}
	return nil
}
