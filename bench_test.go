package countnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"countnet/internal/baseline"
	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/harness/syncsrv"
	"countnet/internal/obs"
	"countnet/internal/pool"
	"countnet/internal/runner"
)

// ---- E1/E2/E3/E11: construction benchmarks -------------------------------

// BenchmarkBuildK measures construction of K networks (E1, E11).
func BenchmarkBuildK(b *testing.B) {
	cases := []struct {
		name string
		fs   []int
	}{
		{"n3_w30", []int{2, 3, 5}},
		{"n4_w256", []int{4, 4, 4, 4}},
		{"n6_w64", []int{2, 2, 2, 2, 2, 2}},
		{"n10_w1024", []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.K(c.fs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildL measures construction of L networks (E2, E11).
func BenchmarkBuildL(b *testing.B) {
	cases := []struct {
		name string
		fs   []int
	}{
		{"n2_w35", []int{7, 5}},
		{"n3_w120", []int{6, 5, 4}},
		{"n5_w32", []int{2, 2, 2, 2, 2}},
		{"n8_w256", []int{2, 2, 2, 2, 2, 2, 2, 2}},
		{"n4_w360", []int{3, 4, 5, 6}}, // the network perfbench's sort_batch builds
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.L(c.fs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildR measures construction of R(p,q) (E3).
func BenchmarkBuildR(b *testing.B) {
	cases := [][2]int{{4, 4}, {9, 9}, {16, 16}, {31, 37}}
	for _, c := range cases {
		b.Run(benchName("R", c[0], c[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.R(c[0], c[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildBaselines measures the classical constructions (E5).
func BenchmarkBuildBaselines(b *testing.B) {
	b.Run("bitonic_1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Bitonic(1024); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("periodic_256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Periodic(256); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E4: the family sweep -------------------------------------------------

// BenchmarkE4FamilyBuild builds every member of the width-64 family
// per iteration, the constructive cost of the paper's trade-off curve.
func BenchmarkE4FamilyBuild(b *testing.B) {
	fss := Factorizations(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fs := range fss {
			if _, err := core.L(fs...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- E12: comparator-engine sorting ----------------------------------------

// BenchmarkSortNetworks measures batch sorting through the comparator
// engine across factorizations of width 64, plus the bitonic baseline
// and the standard library for scale (E12).
func BenchmarkSortNetworks(b *testing.B) {
	nets := map[string]*Network{}
	for _, fs := range [][]int{{8, 8}, {4, 4, 4}, {2, 2, 2, 2, 2, 2}} {
		n, err := NewL(fs...)
		if err != nil {
			b.Fatal(err)
		}
		nets[n.Name()] = n
	}
	bi, _ := NewBitonic(64)
	nets[bi.Name()] = bi

	rng := rand.New(rand.NewSource(3))
	in := make([]int64, 64)
	for i := range in {
		in[i] = int64(rng.Intn(10000))
	}
	for name, n := range nets {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := n.Sort(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("stdlib_sort64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tmp := append([]int64(nil), in...)
			sort.Slice(tmp, func(a, c int) bool { return tmp[a] < tmp[c] })
		}
	})
}

// ---- E6/E7: verification engines -------------------------------------------

// BenchmarkQuiescentTokens measures the token transfer engine used by
// every verification battery (E6/E7 substrate).
func BenchmarkQuiescentTokens(b *testing.B) {
	n, err := core.L(4, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]int64, n.Width())
	rng := rand.New(rand.NewSource(4))
	for i := range in {
		in[i] = int64(rng.Intn(100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.ApplyTokens(n, in)
	}
}

// ---- E9: concurrent counter throughput --------------------------------------

// BenchmarkCounter measures Fetch&Increment under RunParallel for the
// counting-network counters across the width-16 family, against the
// centralized baselines (E9; the [9]-style study).
func BenchmarkCounter(b *testing.B) {
	run := func(name string, c counter.Counter) {
		b.Run(name, func(b *testing.B) {
			var id int64
			b.RunParallel(func(pb *testing.PB) {
				local := c
				if h, ok := c.(counter.Handled); ok {
					id++
					local = h.Handle(int(id))
				}
				for pb.Next() {
					local.Next()
				}
			})
		})
	}
	run("atomic", counter.NewAtomicCounter())
	run("mutex", counter.NewMutexCounter())
	for _, fs := range [][]int{{16}, {8, 2}, {4, 4}, {4, 2, 2}, {2, 2, 2, 2}} {
		n, err := core.L(fs...)
		if err != nil {
			b.Fatal(err)
		}
		run("network_"+n.Name, counter.NewNetworkCounter(n, false))
	}
	n, _ := core.L(4, 4)
	run("network_mutex_L(4,4)", counter.NewNetworkCounter(n, true))
}

// BenchmarkTraverse measures the per-token network walk alone.
func BenchmarkTraverse(b *testing.B) {
	for _, fs := range [][]int{{4, 4}, {2, 2, 2, 2}} {
		n, err := core.L(fs...)
		if err != nil {
			b.Fatal(err)
		}
		a := runner.Compile(n)
		b.Run(n.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.Traverse(i & 15)
			}
		})
	}
}

// BenchmarkTraverseParallel measures contended concurrent traversal:
// every goroutine hammers the same compiled network's balancer
// counters, so false sharing between adjacent gates shows up directly.
func BenchmarkTraverseParallel(b *testing.B) {
	for _, fs := range [][]int{{4, 4}, {2, 2, 2, 2}} {
		n, err := core.L(fs...)
		if err != nil {
			b.Fatal(err)
		}
		a := runner.Compile(n)
		w := n.Width()
		b.Run(n.Name, func(b *testing.B) {
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				wire := int(next.Add(1)) % w
				for pb.Next() {
					a.Traverse(wire)
					wire = (wire + 1) % w
				}
			})
		})
	}
}

// BenchmarkBatchSort compares the batch-sorting engines over identical
// work: `gates` walks the network gate list per batch (the pre-plan
// engine), `plan` streams blocks through the compiled plan on one
// goroutine, and `planmt` adds data-parallel workers.
func BenchmarkBatchSort(b *testing.B) {
	for _, spec := range []struct {
		name  string
		build func() (*Network, error)
	}{
		{"L444_w64", func() (*Network, error) { return NewL(4, 4, 4) }},
		{"K448_w128", func() (*Network, error) { return NewK(4, 4, 8) }},
		{"L3456_w360", func() (*Network, error) { return NewL(3, 4, 5, 6) }},
	} {
		n, err := spec.build()
		if err != nil {
			b.Fatal(err)
		}
		w := n.Width()
		const numBatches = 256
		rng := rand.New(rand.NewSource(9))
		pristine := make([][]int64, numBatches)
		work := make([][]int64, numBatches)
		for i := range pristine {
			pristine[i] = make([]int64, w)
			for j := range pristine[i] {
				pristine[i][j] = int64(rng.Intn(100000))
			}
			work[i] = make([]int64, w)
		}
		reset := func() {
			for i := range work {
				copy(work[i], pristine[i])
			}
		}
		batchNs := func(b *testing.B, run func()) {
			b.Helper()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reset() // identical refill cost for every engine
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*numBatches), "ns/batch")
		}
		plan := runner.CompilePlan(n.inner)
		b.Run(spec.name+"/gates", func(b *testing.B) {
			batchNs(b, func() {
				for i := range work {
					runner.ApplyComparators(n.inner, work[i])
				}
			})
		})
		b.Run(spec.name+"/plan", func(b *testing.B) {
			batchNs(b, func() { plan.ApplyBatches(work) })
		})
		b.Run(spec.name+"/planmt", func(b *testing.B) {
			batchNs(b, func() { plan.SortBatches(work, runtime.NumCPU()) })
		})
	}
}

// ---- E10: recursive accounting ----------------------------------------------

// BenchmarkMergerBuild isolates the merger construction (E10).
func BenchmarkMergerBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.MergerNetwork(core.KConfig(), 2, 3, 4, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E8: staircase variants ---------------------------------------------------

// BenchmarkStaircaseVariants builds each staircase variant (E8).
func BenchmarkStaircaseVariants(b *testing.B) {
	kinds := []core.StaircaseKind{
		core.StaircaseOptBase, core.StaircaseOptBitonic,
		core.StaircaseBasic, core.StaircaseBasicSub,
	}
	for _, kind := range kinds {
		cfg := core.Config{Base: core.BalancerBase, Staircase: kind}
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.StaircaseNetwork(cfg, 6, 4, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- application-layer benchmarks -------------------------------------------

// BenchmarkPool measures the counting-network pool's put/get round trip
// under RunParallel against a channel baseline.
func BenchmarkPool(b *testing.B) {
	n, err := core.L(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("network_pool", func(b *testing.B) {
		p := pool.New[int](n)
		var id int64
		b.RunParallel(func(pb *testing.PB) {
			id++
			h := p.Handle(int(id))
			for pb.Next() {
				h.Put(1)
				h.Get()
			}
		})
	})
	b.Run("channel", func(b *testing.B) {
		ch := make(chan int, 1024)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				ch <- 1
				<-ch
			}
		})
	})
}

// BenchmarkWrappedInject measures the cyclic wrapped scheme's per-token
// cost at a wrapping and a non-wrapping width (E15's latency point).
func BenchmarkWrappedInject(b *testing.B) {
	for _, w := range []int{8, 10} {
		c, err := baseline.NewWrapped(w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("w", w, c.InnerWidth()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Inject(i % w)
			}
		})
	}
}

func benchName(prefix string, p, q int) string {
	return prefix + "_" + itoa(p) + "x" + itoa(q)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkCounterCombining measures the flat-combining counter over
// the same networks as BenchmarkCounter, per value (block1) and in
// blocks of 16 (block16). ns/op is per issued value in both cases, so
// rows compare directly against the BenchmarkCounter engines.
func BenchmarkCounterCombining(b *testing.B) {
	for _, fs := range [][]int{{16}, {4, 4}} {
		n, err := core.L(fs...)
		if err != nil {
			b.Fatal(err)
		}
		c := counter.NewCombiningCounter(n)
		var id atomic.Int64
		b.Run("block1_"+n.Name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				h := c.Handle(int(id.Add(1)))
				for pb.Next() {
					h.Next()
				}
			})
		})
		for _, block := range []int{16, 64} {
			b.Run(fmt.Sprintf("block%d_%s", block, n.Name), func(b *testing.B) {
				b.RunParallel(func(pb *testing.PB) {
					h := c.Handle(int(id.Add(1))).(*counter.CombiningHandle)
					dst := make([]int64, block)
					i := 0
					for pb.Next() {
						if i == 0 {
							h.NextBlock(dst)
						}
						i++
						if i == len(dst) {
							i = 0
						}
					}
				})
			})
		}
	}
}

// BenchmarkTraverseBatch measures the batched propagation engine: one
// reserved range per touched gate, regardless of the token count. The
// ns/token metric shows the amortization — per-token cost falls as the
// batch grows, where BenchmarkTraverse pays the full walk per token.
func BenchmarkTraverseBatch(b *testing.B) {
	for _, fs := range [][]int{{4, 4}, {2, 2, 2, 2}} {
		n, err := core.L(fs...)
		if err != nil {
			b.Fatal(err)
		}
		a := runner.Compile(n)
		s := a.NewBatchScratch()
		w := n.Width()
		dst := make([]int64, w)
		for _, tokens := range []int{1, 16, 256} {
			in := make([]int64, w)
			for i := 0; i < tokens; i++ {
				in[i%w]++
			}
			b.Run(fmt.Sprintf("%s/tokens%d", n.Name, tokens), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.TraverseBatchInto(dst, in, s)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens), "ns/token")
			})
		}
	}
}

// BenchmarkObsOverhead is the observability guard lane: per-token
// counter handles (whose timing obs samples) and the contended
// workload of BenchmarkCounterCombining, run with instrumentation
// compiled in but disabled (obs=off — the state every production
// caller is in unless they opt in) and with it recording (obs=on). The
// obs=off rows must track the seed benchmarks within noise; `make
// bench-obs` commits both sides to BENCH_obs.json and benchjson
// -overhead reports the ratio. A bare network's walk has no pair here:
// it reads no clock with obs on or off, so both sides would time the
// same code, and the counter pair already times the sampled walk. The
// flight=off/flight=on pair guards the flight recorder the same way at
// its block-lease granularity.
func BenchmarkObsOverhead(b *testing.B) {
	n, err := core.L(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"obs=off", "obs=on"} {
		obsOn := mode == "obs=on"
		b.Run("counter_"+n.Name+"/"+mode, func(b *testing.B) {
			// Per-token handles, the path whose latency obs samples
			// one value in obs.SampleEvery.
			c := counter.NewNetworkCounter(n, false)
			if obsOn {
				c.EnableObs("bench-counter", obs.NewRegistry())
			}
			var id atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				h := c.Handle(int(id.Add(1)))
				for pb.Next() {
					h.Next()
				}
			})
		})
		b.Run("combining_"+n.Name+"/"+mode, func(b *testing.B) {
			c := counter.NewCombiningCounter(n)
			if obsOn {
				// A private registry: benchmarks must not leave groups
				// behind in the process-wide default.
				c.EnableObs("bench-combining", obs.NewRegistry())
			}
			var id atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				h := c.Handle(int(id.Add(1)))
				for pb.Next() {
					h.Next()
				}
			})
		})
	}

	// The flight lanes measure the recorder at its deployed
	// granularity — one fixed-size event per 64-value block lease, the
	// harness's NextBlock cadence — first with the default recorder
	// disabled (one atomic pointer load + nil check per lease) and then
	// recording into the ring. The on/off ratio is the recorder's
	// whole-workload cost and must stay within noise (<=2%).
	for _, mode := range []string{"flight=off", "flight=on"} {
		flightOn := mode == "flight=on"
		b.Run("lease_"+n.Name+"/"+mode, func(b *testing.B) {
			if flightOn {
				obs.EnableFlight(obs.DefaultFlightSlots)
			}
			defer obs.DisableFlight()
			c := counter.NewCombiningCounter(n)
			var id atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				h := c.Handle(int(id.Add(1)))
				for pb.Next() {
					first := h.Next()
					for i := 1; i < 64; i++ {
						h.Next()
					}
					obs.RecordFlight(obs.FlightBlockLease, first, 64)
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/value")
		})
	}
}

// BenchmarkSetup measures the set-up paths that run once per counter,
// hub or decoded network rather than per value. count is exactly the
// set-up of perfbench's count_token workload (NewL(4,4), NewCounter,
// Handle(0)); hub is core.L(4,4) plus syncsrv.NewHub, the per-epoch
// set-up of lease_bulk; validate is Network.Validate on L(3,4,5,6),
// which every UnmarshalJSON and ParseText runs; lopt is a build of
// LOpt(3,4,5,6), the sorting-only variant of sort_batch's network.
func BenchmarkSetup(b *testing.B) {
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := NewL(4, 4)
			if err != nil {
				b.Fatal(err)
			}
			setupSink = NewCounter(n).Handle(0)
		}
	})
	b.Run("hub", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := core.L(4, 4)
			if err != nil {
				b.Fatal(err)
			}
			setupSink = syncsrv.NewHub(n)
		}
	})
	b.Run("validate", func(b *testing.B) {
		n, err := core.L(3, 4, 5, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := n.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lopt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := core.LOpt(3, 4, 5, 6)
			if err != nil {
				b.Fatal(err)
			}
			setupSink = n
		}
	})
}

// setupSink keeps BenchmarkSetup's results reachable.
var setupSink any
