// Tests for the generated straight-line compare-exchange kernels
// (zkernels.go): exhaustive 0-1 verification of every embedded width
// through the kernel AND the raw comparator table, differential runs
// of the kernel engine against the gather/insertion-sort/scatter
// reference across all three plan execution modes, and wire-mapping
// (scatter/gather indirection) coverage.
package runner

import (
	"math/rand"
	"reflect"
	"testing"

	"countnet/internal/network"
	"countnet/internal/optnet"
)

// TestKernelExhaustive01 runs all 2^w binary patterns of every
// embedded width through the generated kernel and through the raw
// comparator list, asserting both agree with insertionSortDesc — the
// 0-1 principle then guarantees the kernels sort every input.
func TestKernelExhaustive01(t *testing.T) {
	for w := 5; w <= maxKernelWidth; w++ {
		kern := wideKernel[w]
		if kern == nil {
			t.Fatalf("no kernel for width %d", w)
		}
		net, ok := optnet.For(w)
		if !ok {
			t.Fatalf("no embedded network for width %d", w)
		}
		wires := make([]int32, w)
		for i := range wires {
			wires[i] = int32(i)
		}
		kvals := make([]int64, w)
		rvals := make([]int64, w)
		want := make([]int64, w)
		for pat := 0; pat < 1<<w; pat++ {
			for i := 0; i < w; i++ {
				bit := int64(pat>>i) & 1
				kvals[i], rvals[i], want[i] = bit, bit, bit
			}
			insertionSortDesc(want)
			kern(kvals, wires)
			if !reflect.DeepEqual(kvals, want) {
				t.Fatalf("width %d pattern %#x: kernel %v, insertionSortDesc %v", w, pat, kvals, want)
			}
			for i := 1; i < w; i++ {
				if kvals[i] > kvals[i-1] {
					t.Fatalf("width %d pattern %#x: kernel output %v not descending", w, pat, kvals)
				}
			}
			net.ApplyDesc(rvals)
			if !reflect.DeepEqual(rvals, want) {
				t.Fatalf("width %d pattern %#x: raw comparator list %v, insertionSortDesc %v", w, pat, rvals, want)
			}
		}
	}
}

// laneTables runs f once per lane kernel table, as subtests: the
// portable Go kernels always, the AVX-512 kernels where the CPU runs
// them. The AVX-512 subtest skips, saying why, where it cannot.
func laneTables(t *testing.T, f func(t *testing.T, kern *laneTable)) {
	t.Run("go", func(t *testing.T) { f(t, &goLanes) })
	t.Run("avx512", func(t *testing.T) {
		kern := asmLanes()
		if kern == nil {
			t.Skip("CPU or OS lacks AVX-512F with ZMM state: only the portable lane kernels run here")
		}
		f(t, kern)
	})
}

// TestLaneKernelExhaustive01 runs all 2^w binary patterns of every
// lane kernel width (2..16) through the lane kernel of each table:
// `lanes` patterns per call, a different one in each lane, over a run
// of two gates on disjoint rows, and checks each lane of each gate
// against insertionSortDesc.
func TestLaneKernelExhaustive01(t *testing.T) {
	laneTables(t, func(t *testing.T, kern *laneTable) {
		for w := 2; w <= maxKernelWidth; w++ {
			lane := kern[w]
			if lane == nil {
				t.Fatalf("no lane kernel for width %d", w)
			}
			// Gate 0 takes rows 2w-1, 2w-3, ..., gate 1 the even rows
			// upwards, so wire order and row order disagree.
			wires := make([]int32, 2*w)
			for k := 0; k < w; k++ {
				wires[k] = int32(2*w - 1 - 2*k)
				wires[w+k] = int32(2 * k)
			}
			rows := make([][lanes]int64, 2*w)
			want := make([]int64, w)
			for base := 0; base < 1<<w; base += 2 * lanes {
				pattern := func(g, i int) int { return (base + g*lanes + i) % (1 << w) }
				for g := range 2 {
					for i := range lanes {
						for k, r := range wires[g*w : (g+1)*w] {
							rows[r][i] = int64(pattern(g, i)>>k) & 1
						}
					}
				}
				lane(rows, wires, 2)
				for g := range 2 {
					for i := range lanes {
						for k := range want {
							want[k] = int64(pattern(g, i)>>k) & 1
						}
						insertionSortDesc(want)
						for k, r := range wires[g*w : (g+1)*w] {
							if got := rows[r][i]; got != want[k] {
								t.Fatalf("width %d pattern %#x: wire %d holds %d, want %v", w, pattern(g, i), k, got, want)
							}
						}
					}
				}
			}
		}
	})
}

// TestKernelWireIndirection checks the kernels honor arbitrary wire
// mappings: the gate's values live scattered through a larger wire
// array and only the mapped positions may change.
func TestKernelWireIndirection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const total = 40
	for w := 5; w <= maxKernelWidth; w++ {
		kern := wideKernel[w]
		for trial := 0; trial < 100; trial++ {
			perm := rng.Perm(total)[:w]
			wires := make([]int32, w)
			for i, p := range perm {
				wires[i] = int32(p)
			}
			vals := make([]int64, total)
			for i := range vals {
				vals[i] = rng.Int63n(32) - 16
			}
			before := append([]int64(nil), vals...)
			want := make([]int64, w)
			for i, p := range perm {
				want[i] = before[p]
			}
			insertionSortDesc(want)
			kern(vals, wires)
			onGate := make(map[int]bool, w)
			for i, p := range perm {
				onGate[p] = true
				if vals[p] != want[i] {
					t.Fatalf("width %d trial %d: wire %d has %d, want %d", w, trial, p, vals[p], want[i])
				}
			}
			for i := range vals {
				if !onGate[i] && vals[i] != before[i] {
					t.Fatalf("width %d trial %d: off-gate wire %d changed %d -> %d", w, trial, i, before[i], vals[i])
				}
			}
		}
	}
}

// wideGateNet builds a width-w network holding a few overlapping
// w'-wide gates plus some pairs, exercising the kernel dispatch next
// to the pair fast path within single layers.
func wideGateNet(t testing.TB, width int, gateWidths ...int) *network.Network {
	t.Helper()
	b := network.NewBuilder(width)
	rng := rand.New(rand.NewSource(int64(width)))
	for _, gw := range gateWidths {
		wires := rng.Perm(width)[:gw]
		b.Add(wires, "wide")
		pair := rng.Perm(width)[:2]
		b.Add(pair, "pair")
	}
	return b.Build("widegate", nil)
}

// TestPlanKernelVsInsertionSort differentially runs the generated
// kernels against the insertion-sort reference engine
// (SetWideKernels(false)) and the gate-by-gate evaluator, across
// Apply, ApplyBatches and Pipeline and every kernel width.
func TestPlanKernelVsInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for gw := 5; gw <= maxKernelWidth; gw++ {
		net := wideGateNet(t, gw+4, gw, gw, gw)
		w := net.Width()
		fast := CompilePlan(net)
		slow := CompilePlan(net)
		slow.SetWideKernels(false)
		s1, s2 := fast.NewScratch(), slow.NewScratch()
		for trial := 0; trial < 200; trial++ {
			in := randomBatch(rng, w)
			want := ApplyComparators(net, in)
			got := make([]int64, w)
			fast.Apply(got, in, s1)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("gate width %d trial %d: kernel Apply %v, comparators %v", gw, trial, got, want)
			}
			ref := make([]int64, w)
			slow.Apply(ref, in, s2)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("gate width %d trial %d: kernel %v, insertion-sort engine %v", gw, trial, got, ref)
			}
		}

		batches := make([][]int64, 13)
		want := make([][]int64, len(batches))
		for i := range batches {
			batches[i] = randomBatch(rng, w)
			want[i] = ApplyComparators(net, batches[i])
		}
		fast.ApplyBatches(batches)
		for i := range batches {
			if !reflect.DeepEqual(batches[i], want[i]) {
				t.Fatalf("gate width %d batch %d: kernel batches %v, want %v", gw, i, batches[i], want[i])
			}
		}

		inputs := [][]int64{randomBatch(rng, w), randomBatch(rng, w), randomBatch(rng, w)}
		for i, got := range pipelineSort(fast, inputs) {
			if wantP := ApplyComparators(net, inputs[i]); !reflect.DeepEqual(got, wantP) {
				t.Fatalf("gate width %d batch %d: kernel pipeline %v, want %v", gw, i, got, wantP)
			}
		}
	}
}

// TestPlanKernelAboveCutoff pins the fallback: a gate wider than
// maxKernelWidth takes the insertion-sort path and still matches the
// reference evaluator, through Apply and the Pipeline.
func TestPlanKernelAboveCutoff(t *testing.T) {
	net := wideGateNet(t, maxKernelWidth+3, maxKernelWidth+1, maxKernelWidth+2)
	plan := CompilePlan(net)
	rng := rand.New(rand.NewSource(31))
	s := plan.NewScratch()
	inputs := make([][]int64, 100)
	for trial := range inputs {
		in := randomBatch(rng, net.Width())
		inputs[trial] = in
		want := ApplyComparators(net, in)
		got := make([]int64, net.Width())
		plan.Apply(got, in, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %v, want %v", trial, got, want)
		}
	}
	for trial, got := range pipelineSort(plan, inputs) {
		if want := ApplyComparators(net, inputs[trial]); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: pipeline %v, want %v", trial, got, want)
		}
	}
}
