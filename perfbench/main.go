// Command perfbench is the repository's benchmark. It runs one
// closed-loop workload through the public countnet API (and, for
// lease_bulk, the syncsrv lease service), checks every output, and
// prints each metric by name with its unit. The last line of standard
// output is a JSON object with the verdict and the metrics.
//
//	perfbench --workload sort_batch --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it runs the workload traced and untraced in turns and
// then times each layer on its own, printing the per-layer metrics. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, filepath.Join(".bench_build", "trace")))
}

// run executes one benchmark invocation and returns the exit code.
// Traced runs write their spans under traceDir.
func run(args []string, stdout, stderr io.Writer, traceDir string) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "length of the measurement window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	env, err := json.Marshal(readMachine())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "env %s\n", env)
	d := time.Duration(*seconds * float64(time.Second))
	defs, r := endToEnd, result{}
	if *trace == 1 {
		defs = perLayer
		r, err = runTraced(w, *seed, d, stdout, traceDir)
	} else {
		r, err = runPlain(w, *seed, d, stdout)
	}
	if err == nil {
		err = writeResult(stdout, defs, r)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// Set-up is timed as the median over setupWindows windows of the mean
// time of one set-up in the window: a single cold construction varies
// too much between processes. Untimed set-ups run for setupWarmup
// first, because a machine that was idle runs the first second of work
// up to twice as slowly.
const (
	setupWarmup  = time.Second
	setupWindows = 10
	setupWindow  = 100 * time.Millisecond
)

func timeSetup(one func() error) (float64, error) {
	for t0 := time.Now(); time.Since(t0) < setupWarmup; {
		if err := one(); err != nil {
			return 0, err
		}
	}
	means := make([]float64, setupWindows)
	for i := range means {
		n, t0 := 0, time.Now()
		var el time.Duration
		for el < setupWindow {
			if err := one(); err != nil {
				return 0, err
			}
			n++
			el = time.Since(t0)
		}
		means[i] = el.Seconds() / float64(n)
	}
	return median(means), nil
}

// verdict folds the loops' tallies and the end-of-run check into a
// result without metrics.
func verdict(verr error, loops ...*loopStats) result {
	r := result{Correct: verr == nil}
	for _, st := range loops {
		r.Attempted += st.ops
		r.Failed += st.failed
	}
	if verr != nil && r.Failed == 0 {
		r.Failed = 1
	}
	r.Correct = r.Correct && r.Failed == 0
	return r
}

// windowSlices is how many slices the measured window is cut into; the
// end-to-end figures are medians over them.
const windowSlices = 10

// runPlain is the untraced run: set-up window, warm-up, then the
// measured loop.
func runPlain(w workload, seed int64, d time.Duration, out io.Writer) (result, error) {
	setupS, err := timeSetup(w.setup)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	b, err := w.open(seed)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	var warm loopStats
	st := loopStats{sliceLen: d / windowSlices}
	measure(b, &warm, d/10, nil)
	measure(b, &st, d, nil)
	verr := b.verify(&st)
	p50, err := st.latency(50)
	if err != nil {
		return result{}, err
	}
	p90, err := st.latency(90)
	if err != nil {
		return result{}, err
	}
	pooled := loopStats{lat: st.lat, busy: st.busy, values: st.values}
	pp50, _ := pooled.latency(50)
	pp90, _ := pooled.latency(90)
	fmt.Fprintf(out, "%s seed=%d: %d values, %d ops in a %.3f s window cut in %d slices; pooled: %.6g values/s, p50 %.6g us, p90 %.6g us\n",
		w.name, seed, st.values, len(st.lat), st.busy.Seconds(), len(st.cuts), pooled.rate(), pp50/1e3, pp90/1e3)
	if verr != nil {
		fmt.Fprintf(out, "check failed: %v\n", verr)
	}
	r := verdict(verr, &warm, &st)
	r.Metrics = []float64{st.rate(), p50 / 1e3, p90 / 1e3, setupS}
	return r, nil
}

// Traced-run shape: the workload loop takes this share of the window,
// in alternating untraced and traced rounds; the layer suite the rest.
const (
	tracedLoopShare = 0.4
	tracedRounds    = 4
	traceSpans      = 1 << 14
)

// runTraced runs the workload untraced and traced in turns, then the
// layer suite, and reports the per-layer metrics with the workload's
// layer residual and the tracing overhead.
func runTraced(w workload, seed int64, d time.Duration, out io.Writer, traceDir string) (result, error) {
	b, err := w.open(seed)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	tr := newTracer(traceSpans)
	var warm, plain, traced loopStats
	measure(b, &warm, d/10, nil)
	loop := time.Duration(float64(d) * tracedLoopShare)
	for i := 0; i < tracedRounds; i++ {
		measure(b, &plain, loop/(2*tracedRounds), nil)
		measure(b, &traced, loop/(2*tracedRounds), tr)
	}
	verr := b.verify(&traced)
	b.close() // the layer suite runs on an otherwise idle process
	layers, err := measureLayers(w.factors, seed, d-loop)
	if err != nil {
		return result{}, fmt.Errorf("layers: %w", err)
	}
	stacked, err := percentile(plain.lat, 50)
	if err != nil {
		return result{}, err
	}
	isolated := w.isolated(layers)
	layers["trace.residual_share"] = (stacked - isolated) / stacked
	layers["trace.overhead_share"] = 1 - traced.rate()/plain.rate()
	fmt.Fprintf(out, "%s seed=%d: op p50 %.1f ns untraced, isolated layers sum to %.1f ns\n",
		w.name, seed, stacked, isolated)
	tr.report(out)
	if err := tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-%d.json", w.name, seed))); err != nil {
		return result{}, err
	}
	if verr != nil {
		fmt.Fprintf(out, "check failed: %v\n", verr)
	}
	r := verdict(verr, &warm, &plain, &traced)
	for _, def := range perLayer {
		v, ok := layers[def.Name]
		if !ok {
			return result{}, fmt.Errorf("layer metric %s not measured", def.Name)
		}
		r.Metrics = append(r.Metrics, v)
	}
	return r, nil
}
