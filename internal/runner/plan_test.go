package runner

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

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
			}
		})
	}
}

// batchCounts are the batch counts the lane engine is tested at: one
// lane, a partial block, a full one, one batch past it and a partial
// third block.
var batchCounts = []int{1, lanes - 1, lanes, lanes + 1, 2*lanes + 3}

// TestPlanApplyBatchesMatchesComparators runs the lane-interleaved
// engine over batchCounts with each lane kernel table, and with the
// generated kernels off, on every network plus K(4,4,8), whose
// width-32 gates take the gather/insertion-sort fallback.
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
				plan := CompilePlan(net)
				plan.SetWideKernels(false)
				check(t, net, plan)
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
	for _, count := range []int{1, lanes, 7*lanes + 3} {
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

// TestPlanParallelMatchesComparators runs both parallel engines over
// the plan — SortBatches' data-parallel workers and the layer-pipelined
// Pipeline — against the gate-by-gate reference on every network.
func TestPlanParallelMatchesComparators(t *testing.T) {
	for name, net := range allPlanNetworks(t) {
		t.Run(name, func(t *testing.T) {
			plan := CompilePlan(net)
			rng := rand.New(rand.NewSource(3))
			batches := make([][]int64, 2*lanes+3)
			want := make([][]int64, len(batches))
			for i := range batches {
				batches[i] = randomBatch(rng, net.Width())
				want[i] = ApplyComparators(net, batches[i])
			}
			got := pipelineSort(plan, batches)
			if len(got) != len(batches) {
				t.Fatalf("pipeline returned %d batches, want %d", len(got), len(batches))
			}
			for i := range batches {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("batch %d: pipeline %v, want %v", i, got[i], want[i])
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

func TestPlanWidthMismatchPanics(t *testing.T) {
	plan := CompilePlan(fuzzNet())
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"apply-src", func() { plan.Apply(make([]int64, 4), make([]int64, 3), nil) }},
		{"apply-dst", func() { plan.Apply(make([]int64, 5), make([]int64, 4), nil) }},
		{"batches", func() { plan.ApplyBatches([][]int64{make([]int64, 2)}) }},
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
// inputs. ApplyBatches, SortBatches and SortBatchesAscending run one of
// batchCounts, drawn from the fuzz data, with every lane kernel table
// this CPU runs and with the generated kernels off, so full and partial
// lane blocks meet every topology on every table.
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
	f.Fuzz(func(t *testing.T, seed int64, width, gates, count uint8) {
		w := 2 + int(width)%30
		net, rng := randomPlanNetwork(seed, w, int(gates))
		plan := CompilePlan(net)
		in := randomBatch(rng, w)
		want := ApplyComparators(net, in)

		got := make([]int64, w)
		plan.Apply(got, in, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Apply %v, comparators %v (net %v)", got, want, net)
		}

		batches := make([][]int64, batchCounts[int(count)%len(batchCounts)])
		wantB := make([][]int64, len(batches))
		for i := range batches {
			batches[i] = randomBatch(rng, w)
			wantB[i] = ApplyComparators(net, batches[i])
		}
		plans := make([]*Plan, 0, len(tables)+1)
		for _, kern := range tables {
			p := CompilePlan(net)
			p.kern = kern
			plans = append(plans, p)
		}
		ref := CompilePlan(net)
		ref.SetWideKernels(false)
		plans = append(plans, ref)
		for pi, p := range plans {
			applied := copyBatches(batches)
			sorted := copyBatches(batches)
			ascending := copyBatches(batches)
			p.ApplyBatches(applied)
			p.SortBatches(sorted, 2)
			p.SortBatchesAscending(ascending, 2)
			for i := range batches {
				if !reflect.DeepEqual(applied[i], wantB[i]) {
					t.Fatalf("plan %d: ApplyBatches[%d of %d] %v, want %v", pi, i, len(batches), applied[i], wantB[i])
				}
				if !reflect.DeepEqual(sorted[i], wantB[i]) {
					t.Fatalf("plan %d: SortBatches[%d of %d] %v, want %v", pi, i, len(batches), sorted[i], wantB[i])
				}
				slices.Reverse(ascending[i])
				if !reflect.DeepEqual(ascending[i], wantB[i]) {
					t.Fatalf("plan %d: SortBatchesAscending[%d of %d] reversed %v, want %v", pi, i, len(batches), ascending[i], wantB[i])
				}
			}
		}

		if got := pipelineSort(plan, [][]int64{in})[0]; !reflect.DeepEqual(got, want) {
			t.Fatalf("Pipeline %v, want %v", got, want)
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
