// Package baseline implements the classical networks the paper
// positions its construction against:
//
//   - the bitonic counting network of Aspnes, Herlihy & Shavit [3]
//     (width 2^k, 2-balancers, depth k(k+1)/2), whose overall structure
//     the paper's Section 6 compares to;
//   - the periodic balanced counting network of the same paper
//     (width 2^k, depth k^2);
//   - Batcher's odd-even merge sorting network (width 2^k, depth
//     k(k+1)/2), a sorting baseline;
//   - the bubble-sort network of the paper's Figure 3, a sorting
//     network that is NOT a counting network — the paper's
//     counterexample showing the sorting-to-counting direction of the
//     isomorphism fails;
//   - the odd-even transposition ("brick wall") sorting network.
//
// The AKS-based construction of Klugerman, which the paper cites as
// having enormous constants, is deliberately not implemented; its role
// in the paper is purely asymptotic.
package baseline

import (
	"fmt"

	"countnet/internal/network"
)

// IsPowerOfTwo reports whether w is a positive power of two.
func IsPowerOfTwo(w int) bool { return w > 0 && w&(w-1) == 0 }

// Log2 returns k for w == 2^k; it panics unless w is a power of two.
func Log2(w int) int {
	if !IsPowerOfTwo(w) {
		panic(fmt.Sprintf("baseline: %d is not a power of two", w))
	}
	k := 0
	for 1<<uint(k) < w {
		k++
	}
	return k
}

// Bitonic builds the bitonic counting network of width w = 2^k. Under
// balancer semantics it is a counting network; under comparator
// semantics it is Batcher's bitonic sorting network. Depth k(k+1)/2.
func Bitonic(w int) (*network.Network, error) {
	if !IsPowerOfTwo(w) {
		return nil, fmt.Errorf("baseline: bitonic width %d is not a power of two", w)
	}
	b := network.NewBuilder(w)
	b.Grow(w / 2 * BitonicDepth(w)) // every layer is full
	out := bitonicSort(b, network.Identity(w))
	return b.Build(fmt.Sprintf("Bitonic[%d]", w), out), nil
}

func bitonicSort(b *network.Builder, in []int) []int {
	if len(in) <= 1 {
		return in
	}
	h := len(in) / 2
	x := bitonicSort(b, in[:h])
	y := bitonicSort(b, in[h:])
	return bitonicMerge(b, x, y)
}

// bitonicMerge is the Merger[2k] of Aspnes, Herlihy & Shavit: the even
// elements of x and odd elements of y feed one Merger[k], the odd
// elements of x and even elements of y the other, and a final layer of
// 2-balancers joins the two outputs position by position.
func bitonicMerge(b *network.Builder, x, y []int) []int {
	k := len(x)
	if k == 1 {
		b.Add([]int{x[0], y[0]}, "bitonic/merge")
		return []int{x[0], y[0]}
	}
	xe, xo := evenOdd(x)
	ye, yo := evenOdd(y)
	m0 := bitonicMerge(b, xe, yo)
	m1 := bitonicMerge(b, xo, ye)
	out := make([]int, 0, 2*k)
	for i := 0; i < k; i++ {
		b.Add([]int{m0[i], m1[i]}, "bitonic/join")
		out = append(out, m0[i], m1[i])
	}
	return out
}

func evenOdd(s []int) (even, odd []int) {
	for i, v := range s {
		if i%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	return even, odd
}

// Periodic builds the periodic balanced counting network of width
// w = 2^k: k identical blocks, each a "balanced merger" of depth k, for
// total depth k^2. It is a counting network and a sorting network.
func Periodic(w int) (*network.Network, error) {
	if !IsPowerOfTwo(w) {
		return nil, fmt.Errorf("baseline: periodic width %d is not a power of two", w)
	}
	k := Log2(w)
	b := network.NewBuilder(w)
	b.Grow(w / 2 * PeriodicDepth(w)) // every layer is full
	id := network.Identity(w)
	for block := 0; block < k; block++ {
		balancedMerger(b, id)
	}
	return b.Build(fmt.Sprintf("Periodic[%d]", w), nil), nil
}

// PeriodicBlocks builds only the first `blocks` blocks of the periodic
// network; with blocks < log2(w) the result is generally not a counting
// network, which tests use to confirm the verifier has teeth.
func PeriodicBlocks(w, blocks int) (*network.Network, error) {
	if !IsPowerOfTwo(w) {
		return nil, fmt.Errorf("baseline: periodic width %d is not a power of two", w)
	}
	b := network.NewBuilder(w)
	b.Grow(blocks * Log2(w) * w / 2) // a block is log2(w) full layers
	id := network.Identity(w)
	for block := 0; block < blocks; block++ {
		balancedMerger(b, id)
	}
	return b.Build(fmt.Sprintf("Periodic[%d]x%d", w, blocks), nil), nil
}

// balancedMerger appends one balanced-merger block: pair wire i with
// wire n-1-i, then recurse on each half.
func balancedMerger(b *network.Builder, s []int) {
	n := len(s)
	if n < 2 {
		return
	}
	for i := 0; i < n/2; i++ {
		b.Add([]int{s[i], s[n-1-i]}, "periodic/reflect")
	}
	balancedMerger(b, s[:n/2])
	balancedMerger(b, s[n/2:])
}

// OddEvenMergeSort builds Batcher's odd-even merge sorting network of
// width w = 2^k, depth k(k+1)/2. It sorts, but it is not in general a
// counting network (see the E6/E7 experiments).
func OddEvenMergeSort(w int) (*network.Network, error) {
	if !IsPowerOfTwo(w) {
		return nil, fmt.Errorf("baseline: odd-even width %d is not a power of two", w)
	}
	b := network.NewBuilder(w)
	k := Log2(w)
	b.Grow((k*k-k+4)*w/4 - 1) // (k²−k+4)·2^(k−2) − 1 comparators
	id := network.Identity(w)
	oeSort(b, id)
	return b.Build(fmt.Sprintf("OddEven[%d]", w), nil), nil
}

func oeSort(b *network.Builder, s []int) {
	if len(s) <= 1 {
		return
	}
	h := len(s) / 2
	oeSort(b, s[:h])
	oeSort(b, s[h:])
	oeMerge(b, s)
}

// oeMerge merges two sorted halves of s (Batcher): recursively merge
// the even- and odd-indexed subsequences, then compare-exchange
// (s[1],s[2]), (s[3],s[4]), ...
func oeMerge(b *network.Builder, s []int) {
	n := len(s)
	if n == 2 {
		b.Add([]int{s[0], s[1]}, "oddeven/merge")
		return
	}
	even, odd := evenOdd(s)
	oeMerge(b, even)
	oeMerge(b, odd)
	for i := 1; i+1 < n; i += 2 {
		b.Add([]int{s[i], s[i+1]}, "oddeven/fix")
	}
}

// Bubble builds the bubble-sort network of the paper's Figure 3 for any
// width w >= 2: passes of adjacent compare-exchanges. It is a sorting
// network of depth 2w-3 but NOT a counting network.
func Bubble(w int) (*network.Network, error) {
	if w < 1 {
		return nil, fmt.Errorf("baseline: bubble width %d", w)
	}
	b := network.NewBuilder(w)
	b.Grow(w * (w - 1) / 2)
	for pass := 0; pass < w-1; pass++ {
		for i := 0; i < w-1-pass; i++ {
			b.Add([]int{i, i + 1}, "bubble")
		}
	}
	return b.Build(fmt.Sprintf("Bubble[%d]", w), nil), nil
}

// OddEvenTransposition builds the width-w, depth-w "brick wall"
// sorting network: alternating layers of (0,1),(2,3),... and
// (1,2),(3,4),... compare-exchanges.
func OddEvenTransposition(w int) (*network.Network, error) {
	if w < 1 {
		return nil, fmt.Errorf("baseline: transposition width %d", w)
	}
	b := network.NewBuilder(w)
	b.Grow(w * (w - 1) / 2)
	for layer := 0; layer < w; layer++ {
		for i := layer % 2; i+1 < w; i += 2 {
			b.Add([]int{i, i + 1}, "oet")
		}
	}
	return b.Build(fmt.Sprintf("OET[%d]", w), nil), nil
}

// MergeExchange builds Batcher's merge-exchange sorting network for
// ARBITRARY width w >= 1 (Knuth, TAOCP vol. 3, Algorithm 5.2.2M): the
// iterative form of odd-even merge sort that remains correct when w is
// not a power of two. Depth is at most t(t+1)/2 for t = ceil(log2 w).
//
// It is a sorting network only — like the power-of-two odd-even
// network it is not a counting network — and serves as the
// related-work arbitrary-width sorting baseline (the role the paper's
// Section 2 assigns to Lee & Batcher's multiway generalization).
func MergeExchange(w int) (*network.Network, error) {
	if w < 1 {
		return nil, fmt.Errorf("baseline: merge-exchange width %d", w)
	}
	b := network.NewBuilder(w)
	t := 0
	for 1<<uint(t) < w {
		t++
	}
	if t > 0 {
		for p := 1 << uint(t-1); p > 0; p >>= 1 {
			q := 1 << uint(t-1)
			r := 0
			d := p
			for {
				for i := 0; i+d < w; i++ {
					if i&p == r {
						b.Add([]int{i, i + d}, "mergex")
					}
				}
				if q == p {
					break
				}
				d = q - p
				q >>= 1
				r = p
			}
		}
	}
	return b.Build(fmt.Sprintf("MergeX[%d]", w), nil), nil
}

// MergeExchangeDepthBound returns t(t+1)/2 for t = ceil(log2 w).
func MergeExchangeDepthBound(w int) int {
	t := 0
	for 1<<uint(t) < w {
		t++
	}
	return t * (t + 1) / 2
}

// BitonicDepth returns the depth formula k(k+1)/2 for width 2^k.
func BitonicDepth(w int) int {
	k := Log2(w)
	return k * (k + 1) / 2
}

// PeriodicDepth returns the depth formula k^2 for width 2^k.
func PeriodicDepth(w int) int {
	k := Log2(w)
	return k * k
}
