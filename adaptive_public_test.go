package countnet

import (
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestAdaptiveCounterPublic: the public surface issues distinct values
// under concurrency, with and without observability.
func TestAdaptiveCounterPublic(t *testing.T) {
	net, err := NewL(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, withObs := range []bool{false, true} {
		name := "plain"
		opts := []Option(nil)
		if withObs {
			name = "observed"
			opts = append(opts, WithObservability("public-adaptive"))
		}
		t.Run(name, func(t *testing.T) {
			c := NewAdaptiveCounter(net, opts...)
			const workers, perWorker = 4, 500
			out := make([][]int64, workers)
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := c.Handle(g)
					vals := make([]int64, perWorker)
					for i := range vals {
						vals[i] = h.Next()
					}
					out[g] = vals
				}(g)
			}
			wg.Wait()
			var all []int64
			for _, vs := range out {
				all = append(all, vs...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			for i := 1; i < len(all); i++ {
				if all[i] == all[i-1] {
					t.Fatalf("duplicate value %d", all[i])
				}
			}
			if withObs {
				data, err := ObsSnapshotJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(data), `"public-adaptive"`) {
					t.Fatal("adaptive group missing from obs snapshot")
				}
				if !strings.Contains(string(data), `"adaptive"`) {
					t.Fatal("adaptive kind missing from obs snapshot")
				}
			}
		})
	}
}

// TestAdaptiveCounterBlockDraws: NextBlock on counter and handle stays
// in the same gap-free value space.
func TestAdaptiveCounterBlockDraws(t *testing.T) {
	net, err := NewL(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewAdaptiveCounter(net)
	var all []int64
	dst := make([]int64, 16)
	c.NextBlock(dst)
	all = append(all, dst...)
	h := c.Handle(0)
	h.NextBlock(dst)
	all = append(all, dst...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("values not exactly 0..%d: position %d holds %d", len(all)-1, i, v)
		}
	}
}

// TestAdviseFactorizationPublic: the advisor returns a legal
// factorization of the requested width, shifts to narrower balancers
// as the load grows, and its recommendation builds.
func TestAdviseFactorizationPublic(t *testing.T) {
	low, err := AdviseFactorization(16, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := AdviseFactorization(16, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, adv := range []FactorizationAdvice{low, high} {
		prod := 1
		for _, f := range adv.Factors {
			prod *= f
		}
		if prod != 16 {
			t.Fatalf("recommended factors %v do not multiply to 16", adv.Factors)
		}
		if adv.Rationale == "" {
			t.Fatal("missing rationale")
		}
		if _, err := NewL(adv.Factors...); err != nil {
			t.Fatalf("recommended factorization does not build: %v", err)
		}
	}
	if high.MaxBalancerWidth > low.MaxBalancerWidth {
		t.Fatalf("higher load recommended wider balancers: %d > %d",
			high.MaxBalancerWidth, low.MaxBalancerWidth)
	}
	if _, err := AdviseFactorization(1, 1, 1); err == nil {
		t.Fatal("width 1 did not error")
	}
}
