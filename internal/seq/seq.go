// Package seq implements the sequence machinery of Section 3.1 of
// Busch & Herlihy, "Sorting and Counting Networks of Small Depth and
// Arbitrary Width" (SPAA 1999): the step property, k-smoothness, the
// bitonic property, the k-staircase property, step points, and the four
// matrix arrangements (row major, reverse row major, column major,
// reverse column major) used throughout the constructions.
//
// Sequences are slices of int64 token counts (or values). The paper's
// convention, which this whole repository follows, is that excess tokens
// appear on lower-indexed wires: a step sequence is non-increasing and
// its elements differ by at most one.
package seq

import (
	"fmt"
	"strings"
)

// Sum returns the sum of the elements of x.
func Sum(x []int64) int64 {
	var s int64
	for _, v := range x {
		s += v
	}
	return s
}

// IsStep reports whether x has the step property: for any i < j,
// 0 <= x[i] - x[j] <= 1. Empty and single-element sequences trivially
// have the step property.
func IsStep(x []int64) bool {
	for i := 1; i < len(x); i++ {
		d := x[i-1] - x[i]
		if d < 0 || d > 1 {
			return false
		}
	}
	if len(x) > 1 {
		d := x[0] - x[len(x)-1]
		if d < 0 || d > 1 {
			return false
		}
	}
	return true
}

// StepPoint returns the step point of a step sequence x: the unique index
// i such that x[i] > x[i+1] — i.e. the boundary after which the lower
// value begins — or 0 if all elements are equal. It panics if x does not
// have the step property.
//
// Note the paper defines the step point as the unique i with
// x[i] < x[i+1] reading the transition; under our "excess on lower
// wires" orientation the transition is a decrease.
func StepPoint(x []int64) int {
	if !IsStep(x) {
		panic("seq: StepPoint on non-step sequence")
	}
	for i := 1; i < len(x); i++ {
		if x[i-1] > x[i] {
			return i - 1
		}
	}
	return 0
}

// MakeStep returns the unique step sequence of length w whose elements
// sum to total: element i receives ceil((total-i)/w) tokens.
func MakeStep(w int, total int64) []int64 {
	if w <= 0 {
		return nil
	}
	out := make([]int64, w)
	q, r := total/int64(w), total%int64(w)
	if r < 0 { // not meaningful for token counts, but keep it total-preserving
		q--
		r += int64(w)
	}
	for i := range out {
		out[i] = q
		if int64(i) < r {
			out[i]++
		}
	}
	return out
}

// IsSmooth reports whether x is k-smooth: |x[i] - x[j]| <= k for all i, j.
func IsSmooth(x []int64, k int64) bool {
	if len(x) == 0 {
		return true
	}
	mn, mx := x[0], x[0]
	for _, v := range x[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mx-mn <= k
}

// Transitions returns the number of positions i with x[i] != x[i+1].
func Transitions(x []int64) int {
	t := 0
	for i := 1; i < len(x); i++ {
		if x[i] != x[i-1] {
			t++
		}
	}
	return t
}

// IsBitonic reports whether x has the bitonic property of the paper:
// x is 1-smooth and has at most two transitions.
func IsBitonic(x []int64) bool {
	return IsSmooth(x, 1) && Transitions(x) <= 2
}

// IsStaircase reports whether the sequences xs satisfy the k-staircase
// property: 0 <= Sum(xs[i]) - Sum(xs[j]) <= k for all i < j.
func IsStaircase(xs [][]int64, k int64) bool {
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			d := Sum(xs[i]) - Sum(xs[j])
			if d < 0 || d > k {
				return false
			}
		}
	}
	return true
}

// Arrangement identifies one of the four ways Section 3.1 lays a
// sequence of length r*c out as an r x c matrix.
type Arrangement int

const (
	// RowMajor places x[i] at row i/c, column i%c.
	RowMajor Arrangement = iota
	// ReverseRowMajor places x[i] at row r-1-i/c, column c-1-i%c.
	ReverseRowMajor
	// ColMajor places x[i] at row i%r, column i/r.
	ColMajor
	// ReverseColMajor places x[i] at row r-1-i%r, column c-1-i/r.
	ReverseColMajor
)

// String returns the paper's name for the arrangement.
func (a Arrangement) String() string {
	switch a {
	case RowMajor:
		return "row major"
	case ReverseRowMajor:
		return "reverse row major"
	case ColMajor:
		return "column major"
	case ReverseColMajor:
		return "reverse column major"
	}
	return fmt.Sprintf("Arrangement(%d)", int(a))
}

// Position returns the (row, col) cell that element i of a sequence of
// length r*c occupies under arrangement a.
func (a Arrangement) Position(i, r, c int) (row, col int) {
	switch a {
	case RowMajor:
		return i / c, i % c
	case ReverseRowMajor:
		return r - i/c - 1, c - i%c - 1
	case ColMajor:
		return i % r, i / r
	case ReverseColMajor:
		return r - i%r - 1, c - i/r - 1
	default:
		panic("seq: unknown arrangement")
	}
}

// Index is the inverse of Position: the sequence index of cell (row, col)
// in an r x c matrix under arrangement a.
func (a Arrangement) Index(row, col, r, c int) int {
	switch a {
	case RowMajor:
		return row*c + col
	case ReverseRowMajor:
		return (r-row-1)*c + (c - col - 1)
	case ColMajor:
		return col*r + row
	case ReverseColMajor:
		return (c-col-1)*r + (r - row - 1)
	default:
		panic("seq: unknown arrangement")
	}
}

// Matrix is a rectangular view over a sequence of elements of type T
// (typically wire identifiers or token counts) under an Arrangement.
// It does not copy: cell access maps to sequence indices.
type Matrix[T any] struct {
	Seq  []T
	Rows int
	Cols int
	Arr  Arrangement
}

// NewMatrix arranges x as an r x c matrix under arrangement a.
// It panics if len(x) != r*c.
func NewMatrix[T any](x []T, r, c int, a Arrangement) Matrix[T] {
	if len(x) != r*c {
		panic(fmt.Sprintf("seq: matrix %dx%d over sequence of length %d", r, c, len(x)))
	}
	return Matrix[T]{Seq: x, Rows: r, Cols: c, Arr: a}
}

// At returns the element at (row, col).
func (m Matrix[T]) At(row, col int) T {
	return m.Seq[m.Arr.Index(row, col, m.Rows, m.Cols)]
}

// Set stores v at (row, col).
func (m Matrix[T]) Set(row, col int, v T) {
	m.Seq[m.Arr.Index(row, col, m.Rows, m.Cols)] = v
}

// Row returns a fresh slice holding row i in column order.
func (m Matrix[T]) Row(i int) []T {
	out := make([]T, m.Cols)
	for c := 0; c < m.Cols; c++ {
		out[c] = m.At(i, c)
	}
	return out
}

// Col returns a fresh slice holding column j in row order.
func (m Matrix[T]) Col(j int) []T {
	out := make([]T, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = m.At(r, j)
	}
	return out
}

// Flatten reads the matrix out under arrangement a into a fresh slice:
// element i of the result is the cell that index i maps to under a.
func (m Matrix[T]) Flatten(a Arrangement) []T {
	out := make([]T, m.Rows*m.Cols)
	for i := range out {
		r, c := a.Position(i, m.Rows, m.Cols)
		out[i] = m.At(r, c)
	}
	return out
}

// RenderArrangement draws a 1-smooth sequence laid out as an r x c
// matrix under arrangement a, in the style of the paper's Figure 5:
// '#' marks the high value, '.' the low. Useful for eyeballing how the
// four arrangements place a step sequence's boundary.
func RenderArrangement(x []int64, r, c int, a Arrangement) string {
	if len(x) != r*c {
		panic(fmt.Sprintf("seq: render %dx%d over sequence of length %d", r, c, len(x)))
	}
	var hi int64
	for _, v := range x {
		if v > hi {
			hi = v
		}
	}
	m := NewMatrix(x, r, c, a)
	var sb strings.Builder
	for row := 0; row < r; row++ {
		for col := 0; col < c; col++ {
			if m.At(row, col) == hi {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Stride returns the subsequence X[i, k] of the paper: elements
// x[i], x[i+k], x[i+2k], ... It panics if k <= 0 or i < 0.
func Stride[T any](x []T, i, k int) []T {
	if k <= 0 || i < 0 {
		panic("seq: invalid stride")
	}
	if i >= len(x) {
		return nil
	}
	out := make([]T, 0, (len(x)-i+k-1)/k)
	for j := i; j < len(x); j += k {
		out = append(out, x[j])
	}
	return out
}

// Split cuts x into contiguous blocks of size block. It panics if
// len(x) is not a multiple of block.
func Split[T any](x []T, block int) [][]T {
	if block <= 0 || len(x)%block != 0 {
		panic(fmt.Sprintf("seq: cannot split length %d into blocks of %d", len(x), block))
	}
	out := make([][]T, 0, len(x)/block)
	for i := 0; i < len(x); i += block {
		out = append(out, x[i:i+block])
	}
	return out
}

// Concat concatenates the given slices into a fresh slice.
func Concat[T any](xs ...[]T) []T {
	n := 0
	for _, x := range xs {
		n += len(x)
	}
	out := make([]T, 0, n)
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}
