// Command countbench measures concurrent Fetch&Increment throughput
// for counting-network counters against centralized baselines — the
// repository's interactive version of the E9 experiment ([9]-style
// contention study).
//
// It also reports batch-sort throughput for the same networks through
// a selectable execution engine (-engine).
//
// Usage:
//
//	countbench                                # default sweep, width 16
//	countbench -width 32 -duration 200ms      # wider network, longer windows
//	countbench -goroutines 1,4,16             # explicit thread counts
//	countbench -counter network,combining     # choose counter engines
//	countbench -counter adaptive              # atomic word with per-handle prefetch
//	countbench -counter combining -block 16   # block requests (values/sec)
//	countbench -sweep -goroutines 1,4,16      # benchmark lines for benchjson
//	countbench -engine gates                  # sort via the gate-list walker
//	countbench -obs                           # record + print per-balancer metrics
//	countbench -obs -http :8720 -linger       # keep serving /snapshot, /metrics
//
// countbench shuts down cleanly on SIGINT/SIGTERM: the current
// measurement window is interrupted, remaining cells are skipped, the
// observability snapshot (when -obs) is flushed, and the -http
// endpoint is drained before exit.
//
// With -worker the binary instead becomes a node of the multi-process
// traffic harness: it registers with the sync server given by -sync,
// then executes phase commands from stdin and reports records on
// stdout (the line protocol of internal/harness; docs/TESTING.md,
// "Layer 6"):
//
//	countbench -worker -sync http://127.0.0.1:8123 -id w0
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"countnet/internal/bench"
	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/factor"
	"countnet/internal/harness"
	"countnet/internal/network"
	"countnet/internal/obs"
	"countnet/internal/runner"
	"countnet/internal/stats"
)

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if cfg.Worker {
		// Harness worker mode: the signal context doubles as the kill
		// switch, so an interrupted run tears workers down the same
		// way the measurement sweep shuts down.
		if err := harness.RunWorker(ctx, os.Stdin, os.Stdout, harness.WorkerOptions{
			ID:      cfg.WorkerID,
			SyncURL: cfg.SyncURL,
		}); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "countbench:", err)
			os.Exit(1)
		}
		return
	}

	if cfg.Obs {
		// The flight recorder marks every measurement window edge, so a
		// scrape of /debug/flight during a soak shows which cell was
		// running when a metric moved.
		obs.EnableFlight(obs.DefaultFlightSlots)
	}

	var srv *obs.Server
	if cfg.HTTPAddr != "" {
		var err error
		srv, err = obs.Default.StartServer(cfg.HTTPAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "countbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "countbench: observability endpoint on http://%s/ (/snapshot, /metrics, /debug/vars, /debug/flight)\n", srv.Addr())
	}

	if cfg.Sweep {
		if err := runSweep(ctx, cfg, os.Stdout); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "countbench:", err)
			os.Exit(1)
		}
	} else {
		runTables(ctx, cfg)
	}

	if cfg.Linger && srv != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "countbench: sweep done; still serving on http://%s/ — interrupt to exit\n", srv.Addr())
		<-ctx.Done()
	}

	// Flush the final observability snapshot before the endpoint goes
	// away, so interrupted soak runs still leave their metrics behind.
	if cfg.Obs {
		fmt.Println()
		fmt.Print(obs.RenderTable(nil, obs.Default.Snapshot(), 0))
	}
	if srv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "countbench: shutdown:", err)
		}
	}
}

// runTables is the interactive mode: the Fetch&Increment throughput
// table over every factorization of the width, then the batch-sort
// table.
func runTables(ctx context.Context, cfg *config) {
	width, duration, repeat, block := cfg.Width, cfg.Duration, cfg.Repeat, cfg.Block
	sortBatch := cfg.SortBatch
	want := cfg.Counters

	steps := cfg.Goroutines
	if steps == nil {
		steps = bench.DefaultGoroutineSteps()
	}

	tbl := &bench.Table{
		ID:    "countbench",
		Title: fmt.Sprintf("Fetch&Increment throughput, width %d, block %d (values/sec)", width, block),
	}
	tbl.Header = []string{"counter"}
	for _, g := range steps {
		tbl.Header = append(tbl.Header, fmt.Sprintf("g=%d", g))
	}

	// measure sweeps one counter engine across the goroutine steps. mk
	// rebuilds the counter per window (each cell starts quiescent);
	// with -obs every rebuild re-registers under the same group name,
	// replacing the previous window's group, so endpoint scrapes always
	// see the live engine. Each window runs under pprof labels naming
	// the engine and cell, and aborts early once ctx is canceled.
	measure := func(name string, mk func() counter.Counter) {
		row := []interface{}{name}
		for _, g := range steps {
			phase := fmt.Sprintf("g=%d", g)
			obs.RecordFlight(obs.FlightPhaseStart, int64(g), int64(block))
			s := stats.Repeat(repeat, func() float64 {
				if ctx.Err() != nil {
					return 0
				}
				var rate float64
				obs.Do(name, phase, func() {
					rate = bench.MeasureCounter(mk(), bench.ThroughputOptions{
						Goroutines: g, Duration: duration, Block: block,
						Interrupt: ctx.Done(),
					})
				})
				return rate
			})
			obs.RecordFlight(obs.FlightPhaseEnd, int64(g), int64(s.Mean))
			cell := fmt.Sprintf("%.2fM", s.Mean/1e6)
			if repeat > 1 {
				cell += fmt.Sprintf("±%.0f%%", 100*s.RelStddev())
			}
			row = append(row, cell)
		}
		tbl.AddRow(row...)
	}

	if want["atomic"] {
		measure("atomic", func() counter.Counter { return counter.NewAtomicCounter() })
	}
	if want["mutex"] {
		measure("mutex", func() counter.Counter { return counter.NewMutexCounter() })
	}
	for _, fs := range factor.Factorizations(width, 2) {
		fs := fs
		net, err := core.L(fs...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "countbench:", err)
			os.Exit(1)
		}
		base := fmt.Sprintf("L[%s]", join(fs))
		name := fmt.Sprintf("%s depth=%d bal<=%d", base, net.Depth(), core.MaxFactor(fs))
		if want["network"] {
			measure(name, func() counter.Counter {
				c := counter.NewNetworkCounter(net, false)
				if cfg.Obs {
					c.EnableObs(base, nil)
				}
				return c
			})
		}
		if want["network-mutex"] {
			measure(name+" (mutex)", func() counter.Counter {
				c := counter.NewNetworkCounter(net, true)
				if cfg.Obs {
					c.EnableObs(base+".mutex", nil)
				}
				return c
			})
		}
		if want["combining"] {
			measure(name+" (combining)", func() counter.Counter {
				c := counter.NewCombiningCounter(net)
				if cfg.Obs {
					c.EnableObs(base+".combining", nil)
				}
				return c
			})
		}
		if want["adaptive"] {
			measure(name+" (adaptive)", func() counter.Counter {
				c := counter.NewAdaptiveCounter()
				if cfg.Obs {
					c.EnableObs(base+".adaptive", nil)
				}
				return c
			})
		}
	}
	tbl.Fprint(os.Stdout)
	fmt.Println()

	if ctx.Err() == nil {
		sortTbl := &bench.Table{
			ID:     "countbench-sort",
			Title:  fmt.Sprintf("batch-sort throughput, width %d, engine %s (%d batches)", width, cfg.Engine, sortBatch),
			Header: []string{"network", "depth", "gates", "ns/batch"},
		}
		for _, fs := range factor.Factorizations(width, 2) {
			net, err := core.L(fs...)
			if err != nil {
				fmt.Fprintln(os.Stderr, "countbench:", err)
				os.Exit(1)
			}
			ns := measureSort(net, cfg.Engine, sortBatch)
			sortTbl.AddRow(fmt.Sprintf("L[%s]", join(fs)), net.Depth(), net.Size(), fmt.Sprint(ns))
		}
		sortTbl.Fprint(os.Stdout)
	}
}

// measureSort pushes `batches` random batches through the network with
// the chosen engine and returns nanoseconds per batch.
func measureSort(net *network.Network, engine string, batches int) int64 {
	rng := rand.New(rand.NewSource(42))
	work := make([][]int64, batches)
	for i := range work {
		work[i] = make([]int64, net.Width())
		for j := range work[i] {
			work[i][j] = int64(rng.Intn(1 << 20))
		}
	}
	start := time.Now()
	switch engine {
	case "gates":
		for _, b := range work {
			runner.ApplyComparators(net, b)
		}
	case "plan":
		runner.CompilePlan(net).ApplyBatches(work)
	}
	return time.Since(start).Nanoseconds() / int64(batches)
}

func join(fs []int) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = strconv.Itoa(f)
	}
	return strings.Join(parts, "x")
}
