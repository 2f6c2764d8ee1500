// Package runner executes networks under the three semantics the paper
// uses:
//
//   - Comparator: synchronous sorting. Each gate routes its i-th largest
//     input value to its i-th wire. Applying a width-w sorting network
//     to a batch of w values sorts them.
//   - Quiescent: exact token-count flow. Each wire carries a count of
//     tokens that have traversed it; a width-p balancer that has seen t
//     tokens in total has emitted ceil((t-j)/p) on its j-th wire. This
//     deterministic transfer is exact for any balancing network in a
//     quiescent state and is the workhorse for verifying the step
//     property.
//   - Async (see async.go): real concurrent execution with one goroutine
//     per token stream and atomic per-balancer state, used by the
//     Fetch&Increment counter and the contention experiments.
package runner

import (
	"fmt"

	"countnet/internal/network"
)

// ApplyComparators runs the network under comparator semantics on one
// batch of values, one per wire: in[i] enters on wire i. The returned
// slice is the network's output sequence: element k is the value leaving
// on wire net.OutputOrder[k].
//
// Gates sort descending (largest value to the gate's first wire),
// matching the step-property orientation: a sorted 0/1 batch reads as a
// step sequence on the output order.
func ApplyComparators(net *network.Network, in []int64) []int64 {
	if len(in) != net.Width() {
		panic(fmt.Sprintf("runner: %d inputs for width-%d network", len(in), net.Width()))
	}
	vals := append([]int64(nil), in...)
	buf := make([]int64, net.MaxGateWidth())
	for gi := range net.Gates {
		g := &net.Gates[gi]
		if len(g.Wires) == 2 {
			// Fast path: the overwhelmingly common 2-comparator.
			a, b := g.Wires[0], g.Wires[1]
			if vals[a] < vals[b] {
				vals[a], vals[b] = vals[b], vals[a]
			}
			continue
		}
		t := buf[:len(g.Wires)]
		for i, wire := range g.Wires {
			t[i] = vals[wire]
		}
		insertionSortDesc(t)
		for i, wire := range g.Wires {
			vals[wire] = t[i]
		}
	}
	out := make([]int64, len(vals))
	for k, wire := range net.OutputOrder {
		out[k] = vals[wire]
	}
	return out
}

// ApplyComparatorsFunc is the generic form of ApplyComparators for
// arbitrary element types: less defines the order and gates route the
// greatest element (per less) to their first wire.
func ApplyComparatorsFunc[T any](net *network.Network, in []T, less func(a, b T) bool) []T {
	if len(in) != net.Width() {
		panic(fmt.Sprintf("runner: %d inputs for width-%d network", len(in), net.Width()))
	}
	vals := append([]T(nil), in...)
	buf := make([]T, net.MaxGateWidth())
	for gi := range net.Gates {
		g := &net.Gates[gi]
		w := g.Width()
		t := buf[:w]
		for i, wire := range g.Wires {
			t[i] = vals[wire]
		}
		insertionSortDescFunc(t, less)
		for i, wire := range g.Wires {
			vals[wire] = t[i]
		}
	}
	out := make([]T, len(vals))
	for k, wire := range net.OutputOrder {
		out[k] = vals[wire]
	}
	return out
}

// insertionSortDesc sorts t descending in place.
func insertionSortDesc(t []int64) {
	for i := 1; i < len(t); i++ {
		v := t[i]
		j := i - 1
		for j >= 0 && t[j] < v {
			t[j+1] = t[j]
			j--
		}
		t[j+1] = v
	}
}

// insertionSortDescFunc sorts t descending by less, stably: among
// elements neither of which is less than the other, input order is
// kept. Gate widths are bounded by MaxGateWidth, where insertion sort
// beats the allocation and indirection of the sort package.
func insertionSortDescFunc[T any](t []T, less func(a, b T) bool) {
	for i := 1; i < len(t); i++ {
		v := t[i]
		j := i - 1
		for j >= 0 && less(t[j], v) {
			t[j+1] = t[j]
			j--
		}
		t[j+1] = v
	}
}
