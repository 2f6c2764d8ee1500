package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"

	"countnet/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run reports, in print order.
// Every workload reports the same four.
var endToEnd = []metricDef{
	{"values_per_s", "values/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"setup_s", "s"},
}

// perLayer lists the metrics a traced run reports, in print order. The
// traced run measures every layer whatever the workload, so each row
// is always present; only core.build_ms and the trace.* rows depend on
// the workload (see README.md).
var perLayer = []metricDef{
	{"core.build_ms", "ms"},
	{"runner.compile_plan_ms", "ms"},
	{"runner.apply_batches_us", "us"},
	{"runner.sort_batches_us", "us"},
	{"runner.parallel_speedup", "ratio"},
	{"runner.ns_per_comparator", "ns"},
	{"countnet.sort_batches_us", "us"},
	{"countnet.wrapper_share", "ratio"},
	{"countnet.allocs_per_op", "count"},
	{"runner.compile_async_ms", "ms"},
	{"counter.new_ms", "ms"},
	{"counter.next_ns", "ns"},
	{"runner.traverse_ns", "ns"},
	{"counter.local_ns", "ns"},
	{"counter.allocs_per_op", "count"},
	{"runner.traverse_obs_ns", "ns"},
	{"obs.now_ns", "ns"},
	{"obs.hist_observe_ns", "ns"},
	{"obs.snapshot_us", "us"},
	{"obs.prometheus_us", "us"},
	{"obs.overhead_ratio", "ratio"},
	{"syncsrv.new_hub_ms", "ms"},
	{"syncsrv.server_start_ms", "ms"},
	{"syncsrv.first_draw_ms", "ms"},
	{"syncsrv.client_draw_us", "us"},
	{"syncsrv.hub_draw_us", "us"},
	{"counter.combining_next_block_us", "us"},
	{"runner.traverse_batch_us", "us"},
	{"syncsrv.json_encode_us", "us"},
	{"syncsrv.json_decode_us", "us"},
	{"syncsrv.http_residual_us", "us"},
	{"syncsrv.payload_bytes_per_value", "bytes"},
	{"syncsrv.allocs_per_lease", "count"},
	{"trace.residual_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// nameRE is the metric-name grammar BENCHMARK.json accepts.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name.
func validName(s string) bool { return nameRE.MatchString(s) }

// percentile returns the p-th percentile of xs, refusing one that has
// fewer than ten samples beyond it: such a tail is a handful of
// outliers, not a percentile.
func percentile(xs []float64, p float64) (float64, error) {
	if p < 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range [0,100)", p)
	}
	if beyond := float64(len(xs)) * (100 - p) / 100; beyond < 10 {
		return 0, fmt.Errorf("p%v of %d samples has %.1f beyond it, need 10", p, len(xs), beyond)
	}
	return stats.Percentile(xs, p), nil
}

// median is the 50th percentile of a sample the caller sized.
func median(xs []float64) float64 { return stats.Summarize(xs).Median }

// result is one run's verdict and metrics.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   []float64 // parallel to the run's metric list
}

// writeResult prints the human-readable metric lines and, as the last
// line, the JSON object the benchmark contract specifies.
func writeResult(w io.Writer, defs []metricDef, r result) error {
	if len(defs) != len(r.Metrics) {
		return fmt.Errorf("%d metric values for %d metrics", len(r.Metrics), len(defs))
	}
	metrics := make(map[string]any, len(defs))
	for i, d := range defs {
		v := r.Metrics[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		fmt.Fprintf(w, "metric %-34s %16.6g %s\n", d.Name, v, d.Unit)
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
