package core

import (
	"fmt"

	"countnet/internal/network"
)

// twoMerger appends the two-merger network T(p, q0, q1) of Section 4.4
// to the builder. x0 and x1 are the input orderings (lengths p*q0 and
// p*q1, both multiples of p); if each carries a step sequence, the
// returned ordering of the p*(q0+q1) wires carries a step sequence.
//
// Construction (Proposition 5): arrange x0 as a p x q0 matrix in
// column-major form and x1 as a p x q1 matrix in reverse column-major
// form, align them side by side, place a (q0+q1)-balancer across each
// row and then a p-balancer across each column; the output is the
// combined matrix read in column-major order.
//
// When subRows is true, each row balancer of width 2k (requiring
// q0 == q1 == k) is substituted by a two-merger T(k,1,1) made of
// balancers of width 2 and k, as described at the end of Section 4.3.
// The substitution preserves the row invariant (the row ordering it
// returns carries a step sequence) at the cost of two extra layers.
//
// Degenerate widths are handled naturally: empty inputs pass the other
// input through, and width-1 gates are skipped by the builder.
func (e *buildEnv) twoMerger(p int, x0, x1 []int, subRows bool, label string) []int {
	if len(x0) == 0 {
		return x1
	}
	if len(x1) == 0 {
		return x0
	}
	if p < 1 {
		panic(fmt.Sprintf("core: twoMerger %q with p=%d", label, p))
	}
	if len(x0)%p != 0 || len(x1)%p != 0 {
		panic(fmt.Sprintf("core: twoMerger %q inputs %d,%d not multiples of p=%d", label, len(x0), len(x1), p))
	}
	b := e.b
	q0, q1 := len(x0)/p, len(x1)/p
	cols := q0 + q1

	// w[r*cols+c]: the wire in row r, column c of the combined matrix.
	w := e.ints(p * cols)
	for r := 0; r < p; r++ {
		for c := 0; c < q0; c++ {
			w[r*cols+c] = x0[c*p+r] // column major
		}
		for c := 0; c < q1; c++ {
			w[r*cols+q0+c] = x1[(q1-c-1)*p+(p-r-1)] // reverse column major
		}
	}

	// First layer: one balancer across each row.
	rowLabel := e.sh.label(label, "/row")
	for r := 0; r < p; r++ {
		row := w[r*cols : (r+1)*cols]
		if subRows && q0 == q1 && cols >= 4 {
			copy(row, e.substituteRow(row, label))
		} else {
			b.Add(row, rowLabel)
		}
	}
	// Second layer: one balancer across each column. Output: the
	// combined matrix in column-major order, so column c is out's
	// c-th run of p wires.
	colLabel := e.sh.label(label, "/col")
	out := e.ints(p * cols)
	for c := 0; c < cols; c++ {
		col := out[c*p : (c+1)*p]
		for r := range col {
			col[r] = w[r*cols+c]
		}
		b.Add(col, colLabel)
	}
	return out
}

// substituteRow replaces a width-2k row balancer by the two-merger
// T(k,1,1). The row holds the left half as a step sequence (stride of a
// column-major step matrix) and the right half as a reversed step
// sequence (stride of a reverse-column-major matrix); T(k,1,1) needs
// two step inputs, so the right half is fed reversed. The returned
// ordering replaces the row left to right.
func (e *buildEnv) substituteRow(row []int, label string) []int {
	k := len(row) / 2
	right := e.ints(k)
	for i := range right {
		right[i] = row[len(row)-1-i]
	}
	return e.twoMerger(k, row[:k], right, false, e.sh.label(label, "/rowsub"))
}

// TwoMergerNetwork builds a standalone T(p,q0,q1) whose first input
// sequence occupies wires 0..p*q0-1 and second the remaining wires.
// Exposed for direct testing and for the experiment harness.
func TwoMergerNetwork(p, q0, q1 int) (*network.Network, error) {
	if p < 1 || q0 < 0 || q1 < 0 || q0+q1 < 1 {
		return nil, fmt.Errorf("core: invalid two-merger T(%d,%d,%d)", p, q0, q1)
	}
	width := p * (q0 + q1)
	b := network.NewBuilder(width)
	all := network.Identity(width)
	name := fmt.Sprintf("T(%d,%d,%d)", p, q0, q1)
	out := newEnv(b, Config{}).twoMerger(p, all[:p*q0], all[p*q0:], false, name)
	return b.Build(name, out), nil
}
