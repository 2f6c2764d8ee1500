package countnet_test

import (
	"fmt"
	"sort"
	"sync"

	"countnet"
)

// A reusable batch sorter avoids per-call allocation in hot loops.
func ExampleNewBatchSorter() {
	net, err := countnet.NewL(2, 2)
	if err != nil {
		panic(err)
	}
	s := countnet.NewBatchSorter(net)
	fmt.Println(s.Sort([]int64{4, 1, 3, 2}))
	fmt.Println(s.Sort([]int64{9, 9, 0, 9}))
	// Output:
	// [1 2 3 4]
	// [0 9 9 9]
}

// SortBatches spreads many independent batches over worker goroutines.
func ExampleNetwork_SortBatches() {
	net, err := countnet.NewK(2, 3)
	if err != nil {
		panic(err)
	}
	batches := [][]int64{
		{6, 5, 4, 3, 2, 1},
		{1, 1, 2, 2, 0, 0},
	}
	if err := net.SortBatches(batches, 2); err != nil {
		panic(err)
	}
	fmt.Println(batches[0])
	fmt.Println(batches[1])
	// Output:
	// [1 2 3 4 5 6]
	// [0 0 1 1 2 2]
}

// The Pool delivers every item exactly once across concurrent
// producers and consumers.
func ExampleNewPool() {
	net, err := countnet.NewL(2, 2)
	if err != nil {
		panic(err)
	}
	p := countnet.NewPool[int](net)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := p.Handle(g)
			for i := 0; i < 3; i++ {
				h.Put(g*3 + i)
			}
		}(g)
	}
	wg.Wait()
	got := make([]int, 6)
	for i := range got {
		got[i] = p.Get()
	}
	sort.Ints(got)
	fmt.Println(got)
	// Output:
	// [0 1 2 3 4 5]
}

// Composition: any balancing network followed by a counting network is
// a counting network.
func ExampleConcat() {
	bubble, _ := countnet.NewBubble(4)
	bitonic, _ := countnet.NewBitonic(4)
	cat, err := countnet.Concat("bubble+bitonic", bubble, bitonic)
	if err != nil {
		panic(err)
	}
	fmt.Println("bubble alone counts:", bubble.VerifyCounting(1) == nil)
	fmt.Println("with suffix counts: ", cat.VerifyCounting(1) == nil)
	// Output:
	// bubble alone counts: false
	// with suffix counts:  true
}

// TraceTokens shows individual tokens threading the network.
func ExampleNetwork_TraceTokens() {
	net, err := countnet.NewK(2, 2) // one 4-balancer
	if err != nil {
		panic(err)
	}
	out, err := net.TraceTokens([]int{2, 2})
	if err != nil {
		panic(err)
	}
	fmt.Print(out)
	// Output:
	// token 0: wire 2 -[K(2,2)/C.base #0]-> wire 0  => exit position 0, value 0
	// token 1: wire 2 -[K(2,2)/C.base #1]-> wire 1  => exit position 1, value 1
	// exit counts (output order): [1 1 0 0]
}

// Tracing three tokens through L(2,2), built from 2-balancers only:
// each token crosses three layers, and the ranks show the order in
// which tokens reached each balancer.
func ExampleNetwork_TraceTokens_multiLayer() {
	net, err := countnet.NewL(2, 2)
	if err != nil {
		panic(err)
	}
	out, err := net.TraceTokens([]int{0, 0, 3})
	if err != nil {
		panic(err)
	}
	fmt.Print(out)
	// Output:
	// token 0: wire 0 -[L(2,2)/C.base/T.AB/row #0]-> wire 0 -[L(2,2)/C.base/T.fin/row #0]-> wire 0 -[L(2,2)/C.base/T.fin/col #0]-> wire 0  => exit position 0, value 0
	// token 1: wire 0 -[L(2,2)/C.base/T.AB/row #1]-> wire 1 -[L(2,2)/C.base/T.fin/row #0]-> wire 1 -[L(2,2)/C.base/T.fin/col #1]-> wire 1  => exit position 1, value 1
	// token 2: wire 3 -[L(2,2)/C.base/T.CD/row #0]-> wire 2 -[L(2,2)/C.base/T.fin/row #1]-> wire 2 -[L(2,2)/C.base/T.fin/col #0]-> wire 3  => exit position 2, value 2
	// exit counts (output order): [1 1 1 0]
}
