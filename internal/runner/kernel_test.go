// Tests for the generated straight-line compare-exchange kernels
// (zkernels.go, zlanes_amd64.s): exhaustive 0-1 verification of every
// embedded width through the scalar and lane kernels AND the raw
// comparator table, differential runs of the kernel engines against
// the gate-by-gate evaluator across the plan execution modes, gates
// wider than maxKernelWidth through their merge-exchange expansion,
// and wire-mapping (scatter/gather indirection) coverage.
package runner

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"countnet/internal/network"
	"countnet/internal/optnet"
)

// TestKernelExhaustive01 runs all 2^w binary patterns of every
// embedded width through the generated scalar kernel and through the
// raw comparator list, asserting both agree with insertionSortDesc —
// the 0-1 principle then guarantees the kernels sort every input.
func TestKernelExhaustive01(t *testing.T) {
	for w := 2; w <= maxKernelWidth; w++ {
		kern := scalarKernels[w]
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
			kern(kvals, wires, 1)
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
// `Lanes` patterns per call, a different one in each lane, over a run
// of two gates on disjoint rows, and checks each lane of each gate
// against insertionSortDesc.
func TestLaneKernelExhaustive01(t *testing.T) {
	laneTables(t, func(t *testing.T, kern *laneTable) {
		for w := 2; w <= maxKernelWidth; w++ {
			lane := kern.sort[w]
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
			rows := make([][Lanes]int64, 2*w)
			want := make([]int64, w)
			for base := 0; base < 1<<w; base += 2 * Lanes {
				pattern := func(g, i int) int { return (base + g*Lanes + i) % (1 << w) }
				for g := range 2 {
					for i := range Lanes {
						for k, r := range wires[g*w : (g+1)*w] {
							rows[r][i] = int64(pattern(g, i)>>k) & 1
						}
					}
				}
				lane(rows, wires, 2)
				for g := range 2 {
					for i := range Lanes {
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

// TestKernelWireIndirection checks the scalar kernels honor arbitrary
// wire mappings: a run of two gates whose values live scattered
// through a larger wire array, where only the mapped positions may
// change.
func TestKernelWireIndirection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const total = 40
	for w := 2; w <= maxKernelWidth; w++ {
		kern := scalarKernels[w]
		for trial := 0; trial < 100; trial++ {
			perm := rng.Perm(total)[:2*w]
			wires := make([]int32, 2*w)
			for i, p := range perm {
				wires[i] = int32(p)
			}
			vals := make([]int64, total)
			for i := range vals {
				vals[i] = rng.Int63n(32) - 16
			}
			before := append([]int64(nil), vals...)
			want := make([]int64, 2*w)
			for i, p := range perm {
				want[i] = before[p]
			}
			insertionSortDesc(want[:w])
			insertionSortDesc(want[w:])
			kern(vals, wires, 2)
			onGate := make(map[int]bool, 2*w)
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
// w'-wide gates plus some pairs, so that runs of different widths
// meet within single layers.
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
// kernels against the gate-by-gate evaluator, whose gates are
// insertion sorts, across Apply, ApplyAscending and ApplyBatches and
// every kernel width.
func TestPlanKernelVsInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for gw := 2; gw <= maxKernelWidth; gw++ {
		net := wideGateNet(t, gw+4, gw, gw, gw)
		w := net.Width()
		fast := CompilePlan(net)
		s := fast.NewScratch()
		for trial := 0; trial < 200; trial++ {
			in := randomBatch(rng, w)
			want := ApplyComparators(net, in)
			got := make([]int64, w)
			fast.Apply(got, in, s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("gate width %d trial %d: kernel Apply %v, comparators %v", gw, trial, got, want)
			}
			fast.ApplyAscending(got, in, s)
			slices.Reverse(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("gate width %d trial %d: kernel ApplyAscending reversed %v, comparators %v", gw, trial, got, want)
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
	}
}

// maxExpandTestWidth is the widest gate the expansion tests build:
// every width from maxKernelWidth+1 to it, the primes 17, 19, 23, 31
// and 37 among them.
const maxExpandTestWidth = 40

// TestPlanKernelAboveCutoff sweeps gates wider than maxKernelWidth,
// widths 17..40: each is expanded into merge-exchange 2-gates at
// compile time and must still match the gate-by-gate evaluator, whose
// gate is one insertion sort, through Apply, ApplyAscending and
// ApplyBatches.
func TestPlanKernelAboveCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for gw := maxKernelWidth + 1; gw <= maxExpandTestWidth; gw++ {
		net := wideGateNet(t, gw+3, gw, gw-1)
		plan := CompilePlan(net)
		s := plan.NewScratch()
		inputs := make([][]int64, 2*Lanes+3)
		for trial := range inputs {
			in := randomBatch(rng, net.Width())
			inputs[trial] = in
			want := ApplyComparators(net, in)
			got := make([]int64, net.Width())
			plan.Apply(got, in, s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("gate width %d trial %d: %v, want %v", gw, trial, got, want)
			}
			plan.ApplyAscending(got, in, s)
			slices.Reverse(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("gate width %d trial %d: ApplyAscending reversed %v, want %v", gw, trial, got, want)
			}
		}
		batches := copyBatches(inputs)
		plan.ApplyBatches(batches)
		for trial, got := range batches {
			if want := ApplyComparators(net, inputs[trial]); !reflect.DeepEqual(got, want) {
				t.Fatalf("gate width %d trial %d: ApplyBatches %v, want %v", gw, trial, got, want)
			}
		}
	}
}

// TestPlanWideGateExhaustive01 runs all 2^w binary patterns through a
// plan of one width-w gate, w = 17..20, on shuffled wires, through
// Apply and ApplyBatches, against ApplyComparators: by the 0-1
// principle the gate's merge-exchange expansion then sorts every input
// exactly as the gate does.
func TestPlanWideGateExhaustive01(t *testing.T) {
	for w := maxKernelWidth + 1; w <= 20; w++ {
		b := network.NewBuilder(w)
		b.Add(rand.New(rand.NewSource(int64(w))).Perm(w), "wide")
		net := b.Build("onegate", nil)
		plan := CompilePlan(net)
		s := plan.NewScratch()
		got := make([]int64, w)
		batches := make([][]int64, 4*Lanes)
		wants := make([][]int64, len(batches))
		for i := range batches {
			batches[i] = make([]int64, w)
		}
		for base := 0; base < 1<<w; base += len(batches) {
			for i, in := range batches {
				for k := range in {
					in[k] = int64((base+i)>>k) & 1
				}
				wants[i] = ApplyComparators(net, in)
				plan.Apply(got, in, s)
				if !slices.Equal(got, wants[i]) {
					t.Fatalf("width %d pattern %#x: Apply %v, comparators %v", w, base+i, got, wants[i])
				}
			}
			plan.ApplyBatches(batches)
			for i, got := range batches {
				if !slices.Equal(got, wants[i]) {
					t.Fatalf("width %d pattern %#x: ApplyBatches %v, comparators %v", w, base+i, got, wants[i])
				}
			}
		}
	}
}
