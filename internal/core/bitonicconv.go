package core

import (
	"fmt"

	"countnet/internal/network"
)

// bitonicConverter appends the bitonic-converter D(p,q) of Section 4.4:
// if the input ordering x (length p*q) carries a sequence with the
// bitonic property (1-smooth with at most two transitions), the
// returned ordering carries a step sequence.
//
// Construction: arrange x as a p x q matrix in column-major form, place
// a q-balancer across each row and then a p-balancer across each
// column; read the result in column-major order. Depth 2, balancers of
// width q and p.
func (e *buildEnv) bitonic(p int, x []int, label string) []int {
	if len(x) == 0 {
		return x
	}
	if p < 1 || len(x)%p != 0 {
		panic(fmt.Sprintf("core: bitonicConverter %q length %d not a multiple of p=%d", label, len(x), p))
	}
	b := e.b
	q := len(x) / p

	// Row r of the column-major matrix is x[r], x[r+p], ...
	w := e.ints(p * q)
	for r := 0; r < p; r++ {
		for c := 0; c < q; c++ {
			w[r*q+c] = x[c*p+r]
		}
	}
	rowLabel := e.sh.label(label, "/row")
	for r := 0; r < p; r++ {
		b.Add(w[r*q:(r+1)*q], rowLabel)
	}
	// Column c is x's c-th run of p wires, and the output is the
	// matrix read in column-major order: x itself.
	colLabel := e.sh.label(label, "/col")
	for c := 0; c < q; c++ {
		b.Add(x[c*p:(c+1)*p], colLabel)
	}
	return x
}

// BitonicConverterNetwork builds a standalone D(p,q) over wires
// 0..p*q-1 in input-sequence order.
func BitonicConverterNetwork(p, q int) (*network.Network, error) {
	if p < 1 || q < 1 {
		return nil, fmt.Errorf("core: invalid bitonic-converter D(%d,%d)", p, q)
	}
	b := network.NewBuilder(p * q)
	name := fmt.Sprintf("D(%d,%d)", p, q)
	out := newEnv(b, Config{}).bitonic(p, network.Identity(p*q), name)
	return b.Build(name, out), nil
}
