package main

// -sweep mode: the same goroutine sweep as the interactive tables, but
// emitted as `go test -bench` style result lines so the output pipes
// straight into cmd/benchjson — this is how BENCH_adaptive.json is
// produced (`make bench-adaptive`). One line per (counter, g) cell:
//
//	BenchmarkCounterSweep/adaptive/g=8 	 12345678 	 5.123 ns/op 	 195200000 vals/sec
//
// ns/op is per value (so block and per-value lanes compare directly)
// and the iteration count is the number of values actually measured.
// Every selected counter runs over the same width-`-width` network —
// the coarsest family member L[width], the strongest static network
// lane in BENCH_counter.json — so the sweep isolates the load axis
// from the width/depth axis the tables explore.

import (
	"context"
	"fmt"
	"io"

	"countnet/internal/bench"
	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/network"
	"countnet/internal/obs"
	"countnet/internal/stats"
)

// sweepLane is one counter engine in the sweep. mk builds a fresh,
// quiescent counter per measurement window.
type sweepLane struct {
	name string
	mk   func() counter.Counter
}

// sweepLanes assembles the selected lanes in a fixed order. Lane names
// carry a -block<B> suffix when the draw size is not 1, matching the
// BENCH_counter.json convention (a block lane's ns/op is still per
// value, amortized over the block).
func sweepLanes(cfg *config, net *network.Network) []sweepLane {
	suffix := ""
	if cfg.Block > 1 {
		suffix = fmt.Sprintf("-block%d", cfg.Block)
	}
	var lanes []sweepLane
	add := func(name string, mk func() counter.Counter) {
		if cfg.Counters[name] {
			lanes = append(lanes, sweepLane{name: name + suffix, mk: mk})
		}
	}
	add("atomic", func() counter.Counter { return counter.NewAtomicCounter() })
	add("mutex", func() counter.Counter { return counter.NewMutexCounter() })
	add("network", func() counter.Counter { return counter.NewNetworkCounter(net, false) })
	add("network-mutex", func() counter.Counter { return counter.NewNetworkCounter(net, true) })
	add("combining", func() counter.Counter { return counter.NewCombiningCounter(net) })
	add("adaptive", func() counter.Counter {
		c := counter.NewAdaptiveCounter()
		if cfg.Obs {
			c.EnableObs("sweep.adaptive"+suffix, nil)
		}
		return c
	})
	return lanes
}

// runSweep measures every selected lane at every goroutine step and
// writes one benchmark line per cell to w. Cells repeat cfg.Repeat
// times and report the mean rate. An interrupt (ctx) stops the sweep
// after the current window; already-emitted lines stay valid.
func runSweep(ctx context.Context, cfg *config, w io.Writer) error {
	net, err := core.L(cfg.Width)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# countbench -sweep: width %d, block %d, %s\n",
		cfg.Width, cfg.Block, bench.Environment())
	for _, lane := range sweepLanes(cfg, net) {
		for _, g := range cfg.Goroutines {
			phase := fmt.Sprintf("g=%d", g)
			s := stats.Repeat(cfg.Repeat, func() float64 {
				if ctx.Err() != nil {
					return 0
				}
				var rate float64
				obs.Do(lane.name, phase, func() {
					rate = bench.MeasureCounter(lane.mk(), bench.ThroughputOptions{
						Goroutines: g, Duration: cfg.Duration, Block: cfg.Block,
						Interrupt: ctx.Done(),
					})
				})
				return rate
			})
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// values measured across the repeats; the benchmark line
			// format needs a positive integer iteration count.
			iters := int64(s.Mean * cfg.Duration.Seconds() * float64(cfg.Repeat))
			if iters < 1 {
				iters = 1
			}
			ns := 0.0
			if s.Mean > 0 {
				ns = 1e9 / s.Mean
			}
			fmt.Fprintf(w, "BenchmarkCounterSweep/%s/%s \t%10d\t%12.3f ns/op\t%14.0f vals/sec\n",
				lane.name, phase, iters, ns, s.Mean)
		}
	}
	return nil
}
