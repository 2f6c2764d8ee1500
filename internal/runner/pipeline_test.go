package runner

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPipelineSortsStream(t *testing.T) {
	net := twoSorter()
	p := NewPipeline(CompilePlan(net), 4)
	rng := rand.New(rand.NewSource(2))
	const batches = 64
	inputs := make([][]int64, batches)
	for i := range inputs {
		inputs[i] = make([]int64, 4)
		for j := range inputs[i] {
			inputs[i][j] = int64(rng.Intn(100))
		}
	}
	want := make([][]int64, batches)
	for i, in := range inputs {
		// Pipeline results stay in wire order; compute the wire-order
		// expectation by undoing the output-order remap (identity here).
		want[i] = ApplyComparators(net, in)
	}
	go func() {
		for _, in := range inputs {
			batch := append([]int64(nil), in...)
			p.Submit(batch)
		}
		p.Close()
	}()
	i := 0
	for got := range p.Results() {
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("batch %d: %v, want %v", i, got, want[i])
		}
		i++
	}
	p.Wait()
	if i != batches {
		t.Fatalf("received %d batches, want %d", i, batches)
	}
}

func TestPipelineOrderPreserved(t *testing.T) {
	net := twoSorter()
	p := NewPipeline(CompilePlan(net), 1)
	go func() {
		for k := 0; k < 20; k++ {
			p.Submit([]int64{int64(k), int64(k), int64(k), int64(k)})
		}
		p.Close()
	}()
	k := int64(0)
	for got := range p.Results() {
		if got[0] != k {
			t.Fatalf("batch order broken: got %v at position %d", got, k)
		}
		k++
	}
	p.Wait()
}

func TestPipelineSubmitPanicsOnWidth(t *testing.T) {
	p := NewPipeline(CompilePlan(twoSorter()), 1)
	defer func() {
		p.Close()
		p.Wait()
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Submit([]int64{1, 2})
}

func TestSortBatches(t *testing.T) {
	net := twoSorter()
	rng := rand.New(rand.NewSource(7))
	for _, workers := range []int{1, 2, 5, 100} {
		batches := make([][]int64, 37)
		wants := make([][]int64, len(batches))
		for i := range batches {
			batches[i] = make([]int64, 4)
			for j := range batches[i] {
				batches[i][j] = int64(rng.Intn(100))
			}
			wants[i] = ApplyComparators(net, batches[i])
		}
		CompilePlan(net).SortBatches(batches, workers)
		for i := range batches {
			if !reflect.DeepEqual(batches[i], wants[i]) {
				t.Fatalf("workers=%d batch %d: %v, want %v", workers, i, batches[i], wants[i])
			}
		}
	}
	// Degenerate inputs.
	CompilePlan(net).SortBatches(nil, 4)
	CompilePlan(net).SortBatches([][]int64{}, 0)
}

func TestPipelineOutputOrderExposed(t *testing.T) {
	p := NewPipeline(CompilePlan(twoSorter()), 1)
	if len(p.OutputOrder()) != 4 {
		t.Error("output order missing")
	}
	p.Close()
	p.Wait()
}

// pipelineSort streams the batches through a Pipeline over the plan
// and returns each result in output order, the form ApplyComparators
// produces. The inputs are left untouched.
func pipelineSort(plan *Plan, batches [][]int64) [][]int64 {
	p := NewPipeline(plan, 2)
	go func() {
		for _, b := range batches {
			p.Submit(append([]int64(nil), b...))
		}
		p.Close()
	}()
	var out [][]int64
	for got := range p.Results() {
		ranked := make([]int64, len(got))
		for k, wire := range p.OutputOrder() {
			ranked[k] = got[wire]
		}
		out = append(out, ranked)
	}
	p.Wait()
	return out
}
