package runner

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"countnet/internal/network"
)

// twoSorter builds the 4-wire bitonic sorter out of 2-gates.
func twoSorter() *network.Network {
	b := network.NewBuilder(4)
	b.Add([]int{0, 1}, "")
	b.Add([]int{2, 3}, "")
	b.Add([]int{0, 3}, "")
	b.Add([]int{1, 2}, "")
	b.Add([]int{0, 1}, "")
	b.Add([]int{2, 3}, "")
	return b.Build("sorter4", nil)
}

func TestApplyComparatorsSingleGate(t *testing.T) {
	b := network.NewBuilder(3)
	b.Add([]int{0, 1, 2}, "")
	n := b.Build("g3", nil)
	out := ApplyComparators(n, []int64{1, 3, 2})
	if !reflect.DeepEqual(out, []int64{3, 2, 1}) {
		t.Errorf("3-comparator output %v, want descending [3 2 1]", out)
	}
}

func TestApplyComparatorsSorts(t *testing.T) {
	n := twoSorter()
	for _, in := range [][]int64{
		{1, 2, 3, 4}, {4, 3, 2, 1}, {2, 4, 1, 3}, {7, 7, 0, 7}, {0, 0, 0, 0},
	} {
		out := ApplyComparators(n, in)
		for i := 1; i < len(out); i++ {
			if out[i-1] < out[i] {
				t.Errorf("ApplyComparators(%v) = %v not descending", in, out)
			}
		}
	}
}

func TestApplyComparatorsPreservesMultiset(t *testing.T) {
	f := func(a, b, c, d int8) bool {
		in := []int64{int64(a), int64(b), int64(c), int64(d)}
		out := ApplyComparators(twoSorter(), in)
		x := append([]int64(nil), in...)
		y := append([]int64(nil), out...)
		sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
		sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
		return reflect.DeepEqual(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyComparatorsDoesNotMutateInput(t *testing.T) {
	in := []int64{3, 1, 2, 0}
	saved := append([]int64(nil), in...)
	ApplyComparators(twoSorter(), in)
	if !reflect.DeepEqual(in, saved) {
		t.Errorf("input mutated: %v", in)
	}
}

func TestApplyComparatorsOutputOrder(t *testing.T) {
	// With a reversed output order, a single gate's output reads back
	// ascending.
	b := network.NewBuilder(2)
	b.Add([]int{0, 1}, "")
	n := b.Build("rev", []int{1, 0})
	out := ApplyComparators(n, []int64{9, 1})
	if !reflect.DeepEqual(out, []int64{1, 9}) {
		t.Errorf("output-order remap: %v", out)
	}
}

func TestApplyComparatorsPanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ApplyComparators(twoSorter(), []int64{1, 2})
}

func TestInsertionSortDesc(t *testing.T) {
	cases := [][]int64{
		{}, {1}, {1, 2}, {2, 1}, {3, 1, 2}, {5, 5, 5}, {1, 2, 3, 4, 5},
	}
	for _, c := range cases {
		cp := append([]int64(nil), c...)
		insertionSortDesc(cp)
		for i := 1; i < len(cp); i++ {
			if cp[i-1] < cp[i] {
				t.Fatalf("insertionSortDesc(%v) = %v", c, cp)
			}
		}
	}
}

func TestApplyComparatorsFunc(t *testing.T) {
	type kv struct {
		k int
		v string
	}
	in := []kv{{3, "c"}, {1, "a"}, {4, "d"}, {2, "b"}}
	out := ApplyComparatorsFunc(twoSorter(), in, func(a, b kv) bool { return a.k < b.k })
	wantKeys := []int{4, 3, 2, 1}
	for i, e := range out {
		if e.k != wantKeys[i] {
			t.Fatalf("generic sort order: %v", out)
		}
	}
	// Payloads must travel with keys.
	if out[0].v != "d" || out[3].v != "a" {
		t.Errorf("payloads detached: %v", out)
	}
}

func TestApplyComparatorsFuncStable(t *testing.T) {
	// Equal keys keep their relative order within each gate (SliceStable);
	// at minimum the multiset of payloads must survive.
	type kv struct {
		k int
		v int
	}
	in := []kv{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	out := ApplyComparatorsFunc(twoSorter(), in, func(a, b kv) bool { return a.k < b.k })
	seen := map[int]bool{}
	for _, e := range out {
		seen[e.v] = true
	}
	if len(seen) != 4 {
		t.Errorf("payload multiset damaged: %v", out)
	}
}

func TestApplyComparatorsFuncAllocBound(t *testing.T) {
	// The generic path may allocate its working copy, gate buffer and
	// output — nothing more (in particular no per-gate closures or
	// sort.SliceStable machinery).
	net := twoSorter()
	in := []int64{4, 1, 3, 2}
	less := func(a, b int64) bool { return a < b }
	allocs := testing.AllocsPerRun(100, func() { ApplyComparatorsFunc(net, in, less) })
	if allocs > 3 {
		t.Errorf("ApplyComparatorsFunc allocates %v times per run, want <= 3", allocs)
	}
}

func TestApplyComparatorsEmptyNetwork(t *testing.T) {
	n := network.NewBuilder(3).Build("empty", nil)
	in := []int64{3, 1, 2}
	out := ApplyComparators(n, in)
	if !reflect.DeepEqual(out, in) {
		t.Errorf("empty network should be identity: %v", out)
	}
}
