// Tests of the lane block plumbing around the kernels: the tile
// transposes of a lane table against runBlock's loops, and SortBatches'
// worker hand-off under one and several Ps.
package runner

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"countnet/internal/core"
)

// tiledTable returns the lane table with tile transposes that this CPU
// runs, skipping the test where there is none.
func tiledTable(t testing.TB) *laneTable {
	t.Helper()
	asm := asmLanes()
	if asm == nil || asm.in == nil {
		t.Skip("CPU or OS lacks AVX-512F with ZMM state: no lane table with tile transposes runs here")
	}
	return asm
}

// transposePlan is a plan of the given width with no layers and output
// order out: running it only transposes a block in and back out.
func transposePlan(out []int32, kern *laneTable) *Plan {
	rev := slices.Clone(out)
	slices.Reverse(rev)
	return &Plan{width: len(out), out: out, rev: rev, kern: kern}
}

// TestTransposeTiles calls the tile transposes directly, for
// widths 2..40 and 1..16 batches, and checks every value a tile covers
// and that no value outside the tiles moves: the transpose in must
// leave the rows of wires past the last whole chunk and the lanes of a
// partial group alone, the transpose out the matching batch values.
func TestTransposeTiles(t *testing.T) {
	const sentinel = -1 << 40
	kern := tiledTable(t)
	rng := rand.New(rand.NewSource(41))
	for w := 2; w <= maxExpandTestWidth; w++ {
		out := make([]int32, w)
		for k, wire := range rng.Perm(w) {
			out[k] = int32(wire)
		}
		for n := 1; n <= Lanes; n++ {
			groups, chunks := n/tile, w/tile
			block := make([][]int64, n)
			for i := range block {
				block[i] = randomBatch(rng, w)
			}
			rows := make([][Lanes]int64, w)
			for r := range rows {
				for i := range rows[r] {
					rows[r][i] = sentinel
				}
			}
			kern.in(rows, block, groups, chunks)
			for r := range rows {
				for i := range Lanes {
					want := int64(sentinel)
					if i < tile*groups && r < tile*chunks {
						want = block[i][r]
					}
					if rows[r][i] != want {
						t.Fatalf("width %d, %d batches: in: rows[%d][%d] = %d, want %d", w, n, r, i, rows[r][i], want)
					}
				}
			}

			for r := range rows {
				for i := range rows[r] {
					rows[r][i] = rng.Int63()
				}
			}
			for i := range block {
				for k := range block[i] {
					block[i][k] = sentinel
				}
			}
			kern.out(block, rows, out, groups, chunks)
			for i := range block {
				for k := range block[i] {
					want := int64(sentinel)
					if i < tile*groups && k < tile*chunks {
						want = rows[out[k]][i]
					}
					if block[i][k] != want {
						t.Fatalf("width %d, %d batches: out: block[%d][%d] = %d, want %d", w, n, i, k, block[i][k], want)
					}
				}
			}
		}
	}
}

// TestTransposesMatchLoops runs a block through a plan with no layers,
// so that it is only transposed in and back out, once with the tiled
// table and once with the portable table, whose loops move every
// value: widths 2..40, including those that are no multiple of 8, 1..16
// batches per block, in the output order and reversed.
func TestTransposesMatchLoops(t *testing.T) {
	kern := tiledTable(t)
	rng := rand.New(rand.NewSource(43))
	rows := make([][Lanes]int64, maxExpandTestWidth)
	for w := 2; w <= maxExpandTestWidth; w++ {
		out := make([]int32, w)
		for k, wire := range rng.Perm(w) {
			out[k] = int32(wire)
		}
		tiled, loops := transposePlan(out, kern), transposePlan(out, &goLanes)
		for n := 1; n <= Lanes; n++ {
			for _, order := range []struct {
				name string
				out  []int32
			}{{"out", tiled.out}, {"rev", tiled.rev}} {
				in := make([][]int64, n)
				for i := range in {
					in[i] = randomBatch(rng, w)
				}
				got, want := copyBatches(in), copyBatches(in)
				tiled.runBlock(got, rows, order.out)
				loops.runBlock(want, rows, order.out)
				for i := range in {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("width %d, %d batches, %s order: batch %d is %v through the tiles, %v through the loops", w, n, order.name, i, got[i], want[i])
					}
					for k, wire := range order.out {
						if want[i][k] != in[i][wire] {
							t.Fatalf("width %d, %d batches, %s order: loops put %d at %d, want input wire %d = %d", w, n, order.name, want[i][k], k, wire, in[i][wire])
						}
					}
				}
			}
		}
	}
}

// TestSortBatchesWorkers runs SortBatches and SortBatchesAscending with
// 1..5 workers, under one P and under the default GOMAXPROCS, at batch
// counts around a block, against the gate-by-gate evaluator: the yield
// after spawning the workers must neither hang a caller that has no
// other P nor reorder any batch.
func TestSortBatchesWorkers(t *testing.T) {
	net, err := core.L(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan := CompilePlan(net)
	rng := rand.New(rand.NewSource(47))
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, count := range []int{1, Lanes - 1, Lanes, Lanes + 1, 4 * Lanes} {
				in := make([][]int64, count)
				want := make([][]int64, count)
				for i := range in {
					in[i] = randomBatch(rng, net.Width())
					want[i] = ApplyComparators(net, in[i])
				}
				for workers := 1; workers <= 5; workers++ {
					sorted, ascending := copyBatches(in), copyBatches(in)
					plan.SortBatches(sorted, workers)
					plan.SortBatchesAscending(ascending, workers)
					for i := range in {
						if !slices.Equal(sorted[i], want[i]) {
							t.Fatalf("%d batches, %d workers: SortBatches[%d] %v, want %v", count, workers, i, sorted[i], want[i])
						}
						slices.Reverse(ascending[i])
						if !slices.Equal(ascending[i], want[i]) {
							t.Fatalf("%d batches, %d workers: SortBatchesAscending[%d] reversed %v, want %v", count, workers, i, ascending[i], want[i])
						}
					}
				}
			}
		})
	}
}

// BenchmarkTransposes times a block's transposes alone: ApplyBatches
// of 64 batches through the plan of L(4,4,4) (width 64) and of
// L(3,4,5,6) (width 360) with its layers removed, with each lane
// table this CPU runs.
func BenchmarkTransposes(b *testing.B) {
	type table struct {
		name string
		kern *laneTable
	}
	tables := []table{{"go", &goLanes}}
	if asm := asmLanes(); asm != nil {
		tables = append(tables, table{"avx512", asm})
	}
	for _, factors := range [][]int{{4, 4, 4}, {3, 4, 5, 6}} {
		net, err := core.L(factors...)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(53))
		batches := make([][]int64, 4*Lanes)
		for i := range batches {
			batches[i] = randomBatch(rng, net.Width())
		}
		for _, tb := range tables {
			plan := CompilePlan(net)
			plan.layers, plan.kern = nil, tb.kern
			b.Run(net.Name+"/"+tb.name, func(b *testing.B) {
				for range b.N {
					plan.ApplyBatches(batches)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batches)), "ns/batch")
			})
		}
	}
}
