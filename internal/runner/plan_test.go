package runner

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"countnet/internal/baseline"
	"countnet/internal/core"
	"countnet/internal/network"
)

// goldenPlanNetworks loads every pinned construction from the core
// golden files, so the plan compiler is differentially tested against
// the exact gate-level structures the constructions are pinned to.
func goldenPlanNetworks(t testing.TB) map[string]*network.Network {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden networks found")
	}
	nets := make(map[string]*network.Network, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var n network.Network
		if err := json.Unmarshal(data, &n); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		nets[filepath.Base(p)] = &n
	}
	return nets
}

// constructedPlanNetworks builds fresh K/L/R networks so widths beyond
// the goldens are covered too.
func constructedPlanNetworks(t testing.TB) map[string]*network.Network {
	t.Helper()
	nets := make(map[string]*network.Network)
	for _, c := range []struct {
		name  string
		build func() (*network.Network, error)
	}{
		{"K(2,3,4)", func() (*network.Network, error) { return core.K(2, 3, 4) }},
		{"K(4,4,4)", func() (*network.Network, error) { return core.K(4, 4, 4) }},
		{"L(2,2,2,2)", func() (*network.Network, error) { return core.L(2, 2, 2, 2) }},
		{"R(4,8)", func() (*network.Network, error) { return core.R(4, 8) }},
	} {
		n, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		nets[c.name] = n
	}
	return nets
}

func allPlanNetworks(t testing.TB) map[string]*network.Network {
	nets := goldenPlanNetworks(t)
	for name, n := range constructedPlanNetworks(t) {
		nets[name] = n
	}
	return nets
}

func randomBatch(rng *rand.Rand, w int) []int64 {
	b := make([]int64, w)
	for i := range b {
		b[i] = rng.Int63n(64) - 32
	}
	return b
}

func TestPlanApplyMatchesComparators(t *testing.T) {
	for name, net := range allPlanNetworks(t) {
		t.Run(name, func(t *testing.T) {
			plan := CompilePlan(net)
			if plan.Width() != net.Width() || plan.NumLayers() != net.Depth() {
				t.Fatalf("plan %d/%d, network %d/%d", plan.Width(), plan.NumLayers(), net.Width(), net.Depth())
			}
			rng := rand.New(rand.NewSource(1))
			s := plan.NewScratch()
			for trial := 0; trial < 50; trial++ {
				in := randomBatch(rng, net.Width())
				want := ApplyComparators(net, in)
				got := make([]int64, len(in))
				plan.Apply(got, in, s)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: plan %v, comparators %v, input %v", trial, got, want, in)
				}
				// Nil scratch allocates its own.
				got2 := make([]int64, len(in))
				plan.Apply(got2, in, nil)
				if !reflect.DeepEqual(got2, want) {
					t.Fatalf("trial %d (nil scratch): plan %v, want %v", trial, got2, want)
				}
				// In-place: dst aliasing src.
				inPlace := append([]int64(nil), in...)
				plan.Apply(inPlace, inPlace, s)
				if !reflect.DeepEqual(inPlace, want) {
					t.Fatalf("trial %d (in place): plan %v, want %v", trial, inPlace, want)
				}
				// Ascending, in place too: the same values reversed.
				asc := append([]int64(nil), in...)
				plan.ApplyAscending(asc, asc, s)
				slices.Reverse(asc)
				if !reflect.DeepEqual(asc, want) {
					t.Fatalf("trial %d: ApplyAscending reversed %v, want %v", trial, asc, want)
				}
			}
		})
	}
}

// TestExpandWideKeepsNarrowNetworks pins that a network with no gate
// wider than maxKernelWidth compiles as built: expandWide returns the
// network itself, so its plan is the one it compiled to before wide
// gates were expanded.
func TestExpandWideKeepsNarrowNetworks(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*network.Network, error)
	}{
		{"L(3,4,5,6)", func() (*network.Network, error) { return core.L(3, 4, 5, 6) }},
		{"L(4,4,4)", func() (*network.Network, error) { return core.L(4, 4, 4) }},
		{"K(4,4,4)", func() (*network.Network, error) { return core.K(4, 4, 4) }},
		{"Bitonic(64)", func() (*network.Network, error) { return baseline.Bitonic(64) }},
	} {
		net, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		if got := expandWide(net); got != net {
			t.Errorf("%s: expandWide rebuilt a network whose widest gate is %d", c.name, net.MaxGateWidth())
		}
		if plan := CompilePlan(net); plan.NumLayers() != net.Depth() {
			t.Errorf("%s: %d plan layers, network depth %d", c.name, plan.NumLayers(), net.Depth())
		}
	}
}

// TestCompilePlanLeavesNetworkAsBuilt compiles K(4,4,8), whose width-32
// gates the plan expands, and checks that the network itself, its
// gates, DOT and JSON, is unchanged: only the comparator plan sees the
// expansion.
func TestCompilePlanLeavesNetworkAsBuilt(t *testing.T) {
	net, err := core.K(4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	render := func() (string, []byte) {
		js, err := json.Marshal(net)
		if err != nil {
			t.Fatal(err)
		}
		return net.DOT(), js
	}
	dot, js := render()
	gates := net.Size()
	plan := CompilePlan(net)
	if plan.NumLayers() <= net.Depth() {
		t.Fatalf("plan has %d layers for depth %d: the width-32 gates were not expanded", plan.NumLayers(), net.Depth())
	}
	dot2, js2 := render()
	if net.Size() != gates || net.MaxGateWidth() != 32 || dot2 != dot || !reflect.DeepEqual(js2, js) {
		t.Fatal("CompilePlan changed the network it compiled")
	}
}

// batchCounts are the batch counts the lane engine is tested at: one
// lane, a partial block, a full one, one batch past it and a partial
// third block.
var batchCounts = []int{1, Lanes - 1, Lanes, Lanes + 1, 2*Lanes + 3}

// TestPlanApplyBatchesMatchesComparators runs the lane-interleaved
// engine over batchCounts with each lane kernel table on every network
// plus K(4,4,8), whose width-32 gates the plan expands into
// merge-exchange 2-gates. The reference subtest checks that expansion
// under the gate-by-gate evaluator: a network with no gate wider than
// maxKernelWidth compiles as built, and a wider one expands into a
// network of the same comparator outputs.
func TestPlanApplyBatchesMatchesComparators(t *testing.T) {
	nets := allPlanNetworks(t)
	k448, err := core.K(4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	nets["K(4,4,8)"] = k448
	check := func(t *testing.T, net *network.Network, plan *Plan) {
		rng := rand.New(rand.NewSource(2))
		for _, count := range batchCounts {
			batches := make([][]int64, count)
			want := make([][]int64, len(batches))
			for i := range batches {
				batches[i] = randomBatch(rng, net.Width())
				want[i] = ApplyComparators(net, batches[i])
			}
			plan.ApplyBatches(batches)
			for i := range batches {
				if !reflect.DeepEqual(batches[i], want[i]) {
					t.Fatalf("%d batches, batch %d: plan %v, want %v", count, i, batches[i], want[i])
				}
			}
		}
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			laneTables(t, func(t *testing.T, kern *laneTable) {
				plan := CompilePlan(net)
				plan.kern = kern
				check(t, net, plan)
			})
			t.Run("reference", func(t *testing.T) {
				expanded := expandWide(net)
				if net.MaxGateWidth() <= maxKernelWidth {
					if expanded != net {
						t.Fatal("a network with no gate wider than maxKernelWidth was rebuilt")
					}
					return
				}
				if got := expanded.MaxGateWidth(); got > maxKernelWidth {
					t.Fatalf("expanded network keeps a width-%d gate", got)
				}
				rng := rand.New(rand.NewSource(6))
				for trial := 0; trial < 200; trial++ {
					in := randomBatch(rng, net.Width())
					if got, want := ApplyComparators(expanded, in), ApplyComparators(net, in); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d: expanded network %v, network %v", trial, got, want)
					}
				}
			})
		})
	}
}

// TestPlanApplyBatchesAllocs pins the steady-state allocation count of
// ApplyBatches and SortBatches to a constant per call: the block
// scratch is pooled, never allocated per block.
func TestPlanApplyBatchesAllocs(t *testing.T) {
	net, err := core.L(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan := CompilePlan(net)
	rng := rand.New(rand.NewSource(5))
	for _, count := range []int{1, Lanes, 7*Lanes + 3} {
		batches := make([][]int64, count)
		for i := range batches {
			batches[i] = randomBatch(rng, net.Width())
		}
		if n := testing.AllocsPerRun(50, func() { plan.ApplyBatches(batches) }); n > 1 {
			t.Errorf("%d batches: ApplyBatches allocates %v times per call, want <= 1", count, n)
		}
		// Two workers share a block counter and a WaitGroup, and one of
		// them is a spawned goroutine: 2–4 allocations, with headroom
		// for a pool miss under -race.
		if n := testing.AllocsPerRun(50, func() { plan.SortBatches(batches, 2) }); n > 6 {
			t.Errorf("%d batches: SortBatches allocates %v times per call, want <= 6", count, n)
		}
	}
}

// TestPlanParallelMatchesComparators runs SortBatches' data-parallel
// workers over the plan, in both output orders, against the
// gate-by-gate reference on every network.
func TestPlanParallelMatchesComparators(t *testing.T) {
	for name, net := range allPlanNetworks(t) {
		t.Run(name, func(t *testing.T) {
			plan := CompilePlan(net)
			rng := rand.New(rand.NewSource(3))
			batches := make([][]int64, 2*Lanes+3)
			want := make([][]int64, len(batches))
			for i := range batches {
				batches[i] = randomBatch(rng, net.Width())
				want[i] = ApplyComparators(net, batches[i])
			}
			ascending := copyBatches(batches)
			plan.SortBatchesAscending(ascending, 3)
			for i := range ascending {
				slices.Reverse(ascending[i])
				if !reflect.DeepEqual(ascending[i], want[i]) {
					t.Fatalf("batch %d: SortBatchesAscending reversed %v, want %v", i, ascending[i], want[i])
				}
			}
			plan.SortBatches(batches, 3)
			for i := range batches {
				if !reflect.DeepEqual(batches[i], want[i]) {
					t.Fatalf("batch %d: SortBatches %v, want %v", i, batches[i], want[i])
				}
			}
		})
	}
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

func TestPlanWidthMismatchPanics(t *testing.T) {
	plan := CompilePlan(fuzzNet())
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"apply-src", func() { plan.Apply(make([]int64, 4), make([]int64, 3), nil) }},
		{"apply-dst", func() { plan.Apply(make([]int64, 5), make([]int64, 4), nil) }},
		{"apply-ascending", func() { plan.ApplyAscending(make([]int64, 4), make([]int64, 3), nil) }},
		{"batches", func() { plan.ApplyBatches([][]int64{make([]int64, 2)}) }},
		{"sort-ascending", func() { plan.SortBatchesAscending([][]int64{make([]int64, 4), make([]int64, 2)}, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			c.f()
		})
	}
}

func TestPlanGatelessNetwork(t *testing.T) {
	b := network.NewBuilder(3)
	net := b.Build("empty", []int{2, 0, 1})
	plan := CompilePlan(net)
	in := []int64{10, 20, 30}
	got := make([]int64, 3)
	plan.Apply(got, in, nil)
	if want := []int64{30, 10, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("gateless plan = %v, want %v", got, want)
	}
}

func TestPlanApplyAllocationFree(t *testing.T) {
	net, err := core.K(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := CompilePlan(net)
	s := plan.NewScratch()
	in := randomBatch(rand.New(rand.NewSource(4)), net.Width())
	dst := make([]int64, net.Width())
	if n := testing.AllocsPerRun(100, func() { plan.Apply(dst, in, s) }); n != 0 {
		t.Errorf("Plan.Apply allocates %v times per run, want 0", n)
	}
}

// randomPlanNetwork derives an arbitrary (not necessarily sorting)
// network and batch from fuzz input: the engines must agree on any
// topology, sorted output or not.
func randomPlanNetwork(seed int64, width, gates int) (*network.Network, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	b := network.NewBuilder(width)
	perm := rng.Perm(width)
	for g := 0; g < gates; g++ {
		gw := 2 + rng.Intn(width-1)
		wires := rng.Perm(width)[:gw]
		b.Add(wires, "fuzz")
	}
	var out []int
	if rng.Intn(2) == 0 {
		out = perm
	}
	return b.Build("fuzz", out), rng
}

// FuzzPlanVsComparators cross-checks every plan execution mode against
// the reference gate-by-gate evaluator on arbitrary networks and
// inputs: Apply and ApplyAscending on one batch, then ApplyBatches,
// SortBatches and SortBatchesAscending on one of batchCounts, drawn
// from the fuzz data, with every lane kernel table this CPU runs, so
// full and partial lane blocks meet every topology on every table.
// Widths run 2..40, so gates wider than maxKernelWidth meet their
// merge-exchange expansion.
func FuzzPlanVsComparators(f *testing.F) {
	tables := []*laneTable{&goLanes}
	if asm := asmLanes(); asm != nil {
		tables = append(tables, asm)
	} else {
		f.Log("CPU or OS lacks AVX-512F with ZMM state: fuzzing the portable lane kernels only")
	}
	f.Add(int64(1), uint8(4), uint8(6), uint8(3))
	f.Add(int64(2), uint8(2), uint8(1), uint8(0))
	f.Add(int64(3), uint8(13), uint8(40), uint8(2))
	f.Add(int64(99), uint8(31), uint8(0), uint8(4))
	for _, w := range []uint8{17, 19, 23, 31, 37} {
		f.Add(int64(w), w-2, uint8(3), uint8(w))
	}
	f.Fuzz(func(t *testing.T, seed int64, width, gates, count uint8) {
		w := 2 + int(width)%(maxExpandTestWidth-1)
		net, rng := randomPlanNetwork(seed, w, int(gates))
		plan := CompilePlan(net)
		in := randomBatch(rng, w)
		want := ApplyComparators(net, in)

		got := make([]int64, w)
		plan.Apply(got, in, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Apply %v, comparators %v (net %v)", got, want, net)
		}
		plan.ApplyAscending(got, in, nil)
		slices.Reverse(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ApplyAscending reversed %v, comparators %v (net %v)", got, want, net)
		}

		batches := make([][]int64, batchCounts[int(count)%len(batchCounts)])
		wantB := make([][]int64, len(batches))
		for i := range batches {
			batches[i] = randomBatch(rng, w)
			wantB[i] = ApplyComparators(net, batches[i])
		}
		for pi, kern := range tables {
			p := CompilePlan(net)
			p.kern = kern
			applied := copyBatches(batches)
			sorted := copyBatches(batches)
			ascending := copyBatches(batches)
			p.ApplyBatches(applied)
			p.SortBatches(sorted, 2)
			p.SortBatchesAscending(ascending, 2)
			for i := range batches {
				if !reflect.DeepEqual(applied[i], wantB[i]) {
					t.Fatalf("table %d: ApplyBatches[%d of %d] %v, want %v", pi, i, len(batches), applied[i], wantB[i])
				}
				if !reflect.DeepEqual(sorted[i], wantB[i]) {
					t.Fatalf("table %d: SortBatches[%d of %d] %v, want %v", pi, i, len(batches), sorted[i], wantB[i])
				}
				slices.Reverse(ascending[i])
				if !reflect.DeepEqual(ascending[i], wantB[i]) {
					t.Fatalf("table %d: SortBatchesAscending[%d of %d] reversed %v, want %v", pi, i, len(batches), ascending[i], wantB[i])
				}
			}
		}
	})
}

func copyBatches(batches [][]int64) [][]int64 {
	out := make([][]int64, len(batches))
	for i, b := range batches {
		out[i] = slices.Clone(b)
	}
	return out
}
