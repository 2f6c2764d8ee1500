package runner

import (
	"fmt"

	"countnet/internal/network"
)

// ApplyTokens runs the network under quiescent balancer semantics.
// in[i] is the number of tokens entering on wire i. The result is the
// network's output sequence of token counts: element k is the number of
// tokens leaving on wire net.OutputOrder[k].
//
// The transfer function at a width-p balancer with input counts summing
// to t is exact for any quiescent execution: output j carries
// ceil((t-j)/p) tokens, because the i-th token to enter leaves on wire
// i mod p regardless of arrival interleaving.
func ApplyTokens(net *network.Network, in []int64) []int64 {
	return NewStepper(net).Step(in)
}

// Stepper is a reusable, allocation-free version of ApplyTokens for
// hot verification loops. Not safe for concurrent use.
type Stepper struct {
	net    *network.Network
	counts []int64
	out    []int64
}

// NewStepper prepares a Stepper for the network.
func NewStepper(net *network.Network) *Stepper {
	return &Stepper{
		net:    net,
		counts: make([]int64, net.Width()),
		out:    make([]int64, net.Width()),
	}
}

// Step computes the quiescent output distribution for the given input
// token counts, which must be non-negative. The returned slice is
// reused by the next call.
func (s *Stepper) Step(in []int64) []int64 {
	if len(in) != s.net.Width() {
		panic(fmt.Sprintf("runner: %d token counts for width-%d network", len(in), s.net.Width()))
	}
	counts := s.counts
	for wire, t := range in {
		if t < 0 {
			panic(fmt.Sprintf("runner: negative token count on wire %d", wire))
		}
		counts[wire] = t
	}
	for gi := range s.net.Gates {
		g := &s.net.Gates[gi]
		p := int64(g.Width())
		var t int64
		for _, wire := range g.Wires {
			t += counts[wire]
		}
		q, r := t/p, t%p
		for j, wire := range g.Wires {
			counts[wire] = q
			if int64(j) < r {
				counts[wire]++
			}
		}
	}
	for k, wire := range s.net.OutputOrder {
		s.out[k] = counts[wire]
	}
	return s.out
}

// ApplyTokensSerial simulates a balancing network one token at a time:
// tokens[k] is the entry wire of the k-th token to enter the network
// (tokens on distinct wires may be injected in any order in a real
// execution; serial order is one legal schedule). It returns per-wire
// exit counts in output order, plus the exit wire position (index into
// the output order) of each token in injection order.
//
// This engine exists to cross-check ApplyTokens — the per-wire exit
// counts must agree — and to let tests observe individual token paths.
func ApplyTokensSerial(net *network.Network, tokens []int) (counts []int64, exits []int) {
	w := net.Width()
	// Precomputed routing: first gate per wire, successor gate per
	// (gate, port), and each wire's output-order position. One pass over
	// the wire/gate incidence replaces the per-token linear scans the
	// walk used to do (a gate-position search per hop and an O(w)
	// OutputOrder search per exit), which made large networks quadratic.
	entry := make([]int, w)
	for wire := range entry {
		entry[wire] = -1
	}
	succ := make([][]int, net.Size()) // next gate per port, -1 if the token exits
	for gi := range net.Gates {
		s := make([]int, net.Gates[gi].Width())
		for j := range s {
			s[j] = -1
		}
		succ[gi] = s
	}
	for wire, lst := range net.WireGates() {
		prev := -1 // previous gate on this wire, with prevPort its port
		prevPort := 0
		for _, gid := range lst {
			port := portOf(&net.Gates[gid], wire)
			if prev < 0 {
				entry[wire] = gid
			} else {
				succ[prev][prevPort] = gid
			}
			prev, prevPort = gid, port
		}
	}
	outPos := make([]int, w)
	for pos, wire := range net.OutputOrder {
		outPos[wire] = pos
	}

	state := make([]int, net.Size()) // tokens seen per gate
	wireCounts := make([]int64, w)
	exits = make([]int, len(tokens))
	for k, wire := range tokens {
		if wire < 0 || wire >= w {
			panic(fmt.Sprintf("runner: token enters on wire %d outside width %d", wire, w))
		}
		gid := entry[wire]
		for gid >= 0 {
			g := &net.Gates[gid]
			i := state[gid]
			state[gid]++
			port := i % g.Width()
			wire = g.Wires[port]
			gid = succ[gid][port]
		}
		wireCounts[wire]++
		exits[k] = outPos[wire]
	}
	counts = make([]int64, w)
	for pos, wire := range net.OutputOrder {
		counts[pos] = wireCounts[wire]
	}
	return counts, exits
}

// portOf returns the port index of wire within the gate.
func portOf(g *network.Gate, wire int) int {
	for j, gw := range g.Wires {
		if gw == wire {
			return j
		}
	}
	panic("runner: gate not on wire")
}
