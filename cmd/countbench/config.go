package main

import (
	"bytes"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// config is the parsed, validated countbench invocation. Parsing lives
// apart from main so flag validation is testable: unknown engines and
// counters must be rejected with usage text, not silently skipped.
type config struct {
	// Sweep mode.
	Width      int
	Duration   time.Duration
	Goroutines []int // nil = bench.DefaultGoroutineSteps()
	Counters   map[string]bool
	Block      int
	Repeat     int
	Engine     string
	SortBatch  int
	HTTPAddr   string

	// Worker mode (the multi-process harness's `countbench -worker`;
	// see internal/harness and docs/TESTING.md, "Layer 6").
	SyncURL  string
	WorkerID string

	Sweep  bool
	Obs    bool
	Linger bool
	Worker bool
}

// knownCounters and knownEngines are the accepted flag values; keep
// the usage strings below in sync.
var (
	knownCounters = []string{"atomic", "mutex", "network", "network-mutex", "combining", "adaptive"}
	knownEngines  = []string{"gates", "plan"}
)

// sweepGoroutineSteps is the default goroutine ladder for -sweep: the
// fixed g ∈ {1,2,4,8,16,32} grid of BENCH_adaptive.json, machine-
// independent so committed sweeps stay comparable (the table mode's
// default still scales with GOMAXPROCS).
var sweepGoroutineSteps = []int{1, 2, 4, 8, 16, 32}

// parseConfig parses and validates the command line. The returned
// error already includes the flag usage text, so main only prints it
// and exits nonzero.
func parseConfig(args []string) (*config, error) {
	fs := flag.NewFlagSet("countbench", flag.ContinueOnError)
	var usage bytes.Buffer
	fs.SetOutput(&usage)

	cfg := &config{}
	var goroutines, counters string
	fs.IntVar(&cfg.Width, "width", 16, "counting network width (all factorizations are swept)")
	fs.DurationVar(&cfg.Duration, "duration", 100*time.Millisecond, "measurement window per cell")
	fs.StringVar(&goroutines, "goroutines", "", "comma-separated goroutine counts (default: 1,2,4,... to 2x GOMAXPROCS)")
	fs.StringVar(&counters, "counter", "atomic,mutex,network,combining,adaptive",
		"comma-separated counter engines: "+strings.Join(knownCounters, ", "))
	fs.BoolVar(&cfg.Sweep, "sweep", false, "emit one benchmark-format line per (counter, goroutines) cell for cmd/benchjson instead of the tables; default goroutines become 1,2,4,8,16,32 (docs/PERFORMANCE.md)")
	fs.IntVar(&cfg.Block, "block", 1, "values drawn per operation (NextBlock when > 1); throughput counts values/sec")
	fs.IntVar(&cfg.Repeat, "repeat", 3, "measurements per cell; cells report mean and relative stddev")
	fs.StringVar(&cfg.Engine, "engine", "plan", "batch-sort engine: "+strings.Join(knownEngines, ", "))
	fs.IntVar(&cfg.SortBatch, "sortbatches", 4096, "batches per batch-sort measurement")
	fs.BoolVar(&cfg.Obs, "obs", false, "record observability metrics for network counters and print the table at exit (docs/OBSERVABILITY.md)")
	fs.StringVar(&cfg.HTTPAddr, "http", "", "serve observability endpoints (/snapshot, /metrics, /debug/vars) on this address; implies -obs")
	fs.BoolVar(&cfg.Linger, "linger", false, "with -http: keep serving after the sweep until interrupted")
	fs.BoolVar(&cfg.Worker, "worker", false, "run as a traffic-harness worker speaking the line protocol on stdin/stdout (internal/harness)")
	fs.StringVar(&cfg.SyncURL, "sync", "", "with -worker: base URL of the harness sync server")
	fs.StringVar(&cfg.WorkerID, "id", "", "with -worker: this worker's id (e.g. w0)")

	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, usage.String())
	}
	fail := func(format string, a ...any) (*config, error) {
		fs.Usage()
		return nil, fmt.Errorf("countbench: "+format+"\n%s", append(a, usage.String())...)
	}
	if narg := fs.NArg(); narg > 0 {
		return fail("unexpected argument %q", fs.Arg(0))
	}

	if cfg.Worker {
		if cfg.Sweep {
			return fail("-sweep does not apply with -worker")
		}
		if cfg.SyncURL == "" {
			return fail("-worker needs -sync URL")
		}
		if cfg.WorkerID == "" {
			return fail("-worker needs -id")
		}
		return cfg, nil
	}
	if cfg.SyncURL != "" || cfg.WorkerID != "" {
		return fail("-sync and -id only apply with -worker")
	}

	found := false
	for _, e := range knownEngines {
		found = found || cfg.Engine == e
	}
	if !found {
		return fail("unknown engine %q (want %s)", cfg.Engine, strings.Join(knownEngines, ", "))
	}

	cfg.Counters = map[string]bool{}
	for _, part := range strings.Split(counters, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		ok := false
		for _, k := range knownCounters {
			ok = ok || name == k
		}
		if !ok {
			return fail("unknown counter %q (want %s)", name, strings.Join(knownCounters, ", "))
		}
		cfg.Counters[name] = true
	}

	if goroutines != "" {
		for _, part := range strings.Split(goroutines, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 {
				return fail("bad goroutine count %q", part)
			}
			cfg.Goroutines = append(cfg.Goroutines, v)
		}
	}
	if cfg.Sweep && cfg.Goroutines == nil {
		cfg.Goroutines = append([]int(nil), sweepGoroutineSteps...)
	}
	if cfg.Repeat < 1 {
		cfg.Repeat = 1
	}
	if cfg.Block < 1 {
		cfg.Block = 1
	}
	if cfg.HTTPAddr != "" {
		cfg.Obs = true
	}
	return cfg, nil
}
