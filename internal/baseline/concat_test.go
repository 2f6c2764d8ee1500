package baseline_test

import (
	"countnet/internal/baseline"
	"math/rand"
	"reflect"
	"testing"

	"countnet/internal/network"
	"countnet/internal/runner"
	"countnet/internal/verify"
)

// TestPeriodicIsConcatOfBlocks: the periodic network is by definition
// k sequentially-composed balanced-merger blocks; Concat must rebuild
// it exactly (same behaviour on all inputs, same structure counts).
func TestPeriodicIsConcatOfBlocks(t *testing.T) {
	w := 16
	k := baseline.Log2(w)
	block, err := baseline.PeriodicBlocks(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	stages := make([]*network.Network, k)
	for i := range stages {
		stages[i] = block
	}
	cat, err := network.Concat("cat-periodic", stages...)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := baseline.Periodic(w)
	if cat.Size() != direct.Size() || cat.Depth() != direct.Depth() {
		t.Errorf("concat: %d gates depth %d; direct: %d gates depth %d",
			cat.Size(), cat.Depth(), direct.Size(), direct.Depth())
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		in := make([]int64, w)
		for i := range in {
			in[i] = int64(rng.Intn(20))
		}
		a := runner.ApplyTokens(cat, in)
		b := runner.ApplyTokens(direct, in)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("concat and direct periodic disagree on %v: %v vs %v", in, a, b)
		}
	}
}

// TestConcatWithCountingSuffixCounts: appending a counting network to
// ANY balancing network yields a counting network (a counting network
// steps arbitrary inputs). The bubble network alone fails the battery;
// bubble followed by bitonic passes.
func TestConcatWithCountingSuffixCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	bubble, _ := baseline.Bubble(8)
	bitonic, _ := baseline.Bitonic(8)
	cat, err := network.Concat("bubble+bitonic", bubble, bitonic)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.IsCountingNetwork(bubble, rng); err == nil {
		t.Fatal("bubble alone should fail")
	}
	if err := verify.IsCountingNetwork(cat, rng); err != nil {
		t.Errorf("bubble+bitonic: %v", err)
	}
}
