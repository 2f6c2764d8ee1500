package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"countnet/internal/obs"
)

// WorkerFile is the per-worker artifact a run leaves on disk: every
// phase record one worker produced, plus enough context (scenario,
// seed, width) to reproduce the run and re-check its values. The
// collector (`benchjson file...`) merges these into the
// BENCH_scenarios.json lane.
type WorkerFile struct {
	Worker   string        `json:"worker"`
	Scenario string        `json:"scenario"`
	Seed     int64         `json:"seed"`
	Width    int           `json:"width"`
	Lost     bool          `json:"lost,omitempty"` // killed mid-run
	Records  []PhaseRecord `json:"records"`
}

// WriteWorkerFile writes the artifact as indented JSON.
func WriteWorkerFile(path string, wf *WorkerFile) error {
	data, err := json.MarshalIndent(wf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FlightFile is the per-worker post-mortem artifact: the worker's
// flight-recorder dump (ordered fixed-size events — phase edges,
// barrier arrivals, block leases, oracle violations) plus the run
// coordinates needed to line it up against the other workers' dumps.
// Written by RunResult.WriteFlightDumps when a kill scenario fires or
// the post-run oracle fails.
type FlightFile struct {
	Worker   string            `json:"worker"`
	Scenario string            `json:"scenario"`
	Seed     int64             `json:"seed"`
	Lost     bool              `json:"lost,omitempty"` // killed mid-run
	Events   []obs.FlightEvent `json:"events"`
}

// WriteFlightFile writes the dump as indented JSON.
func WriteFlightFile(path string, ff *FlightFile) error {
	data, err := json.MarshalIndent(ff, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFlightFile reads an artifact written by WriteFlightFile.
func ReadFlightFile(path string) (*FlightFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ff FlightFile
	if err := json.Unmarshal(data, &ff); err != nil {
		return nil, fmt.Errorf("harness: %s is not a flight dump file: %w", path, err)
	}
	return &ff, nil
}

// ReadWorkerFile reads an artifact written by WriteWorkerFile.
func ReadWorkerFile(path string) (*WorkerFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wf WorkerFile
	if err := json.Unmarshal(data, &wf); err != nil {
		return nil, fmt.Errorf("harness: %s is not a worker record file: %w", path, err)
	}
	return &wf, nil
}

// MergedRow is one line of the merged scenario table: a per-worker
// phase measurement, or a per-phase aggregate over all workers (the
// rows whose name ends in "/all").
type MergedRow struct {
	// Name is "scenario/pNN-phase/worker" (or ".../all"); the zero-
	// padded phase index pins lexicographic order to run order.
	Name string
	// NsPerOp is the mean draw latency in nanoseconds (ops-weighted
	// across workers for aggregate rows).
	NsPerOp float64
	// Extra carries ops, values, values_per_sec, p50_ns, p99_ns,
	// block, throttle_ns (workers instead of block/throttle for
	// aggregates).
	Extra map[string]float64
}

// MergeFiles reads worker record files and merges them into one
// deterministically ordered table: rows sorted by name, one row per
// (phase, worker) plus one "/all" aggregate per phase. The drawn
// values are summarized away — the merged table is the benchmark
// artifact; correctness checking happens against the raw files.
func MergeFiles(paths []string) ([]MergedRow, error) {
	var files []*WorkerFile
	for _, p := range paths {
		wf, err := ReadWorkerFile(p)
		if err != nil {
			return nil, err
		}
		files = append(files, wf)
	}
	return MergeWorkerFiles(files)
}

// MergeWorkerFiles is MergeFiles over already-loaded artifacts.
func MergeWorkerFiles(files []*WorkerFile) ([]MergedRow, error) {
	type agg struct {
		ops, values  float64
		latWeighted  float64 // sum of ops*mean
		valuesPerSec float64
		workers      int
	}
	var rows []MergedRow
	aggs := map[string]*agg{}
	for _, wf := range files {
		for i := range wf.Records {
			r := &wf.Records[i]
			base := fmt.Sprintf("%s/p%02d-%s", wf.Scenario, r.Index, r.Phase)
			rows = append(rows, MergedRow{
				Name:    base + "/" + r.Worker,
				NsPerOp: r.MeanNs,
				Extra: map[string]float64{
					"ops":            float64(r.Ops),
					"values":         float64(r.ValuesDrawn),
					"values_per_sec": r.OpsPerSec(),
					"p50_ns":         r.P50Ns,
					"p99_ns":         r.P99Ns,
					"block":          float64(r.Block),
					"throttle_ns":    float64(r.Throttle),
				},
			})
			a := aggs[base]
			if a == nil {
				a = &agg{}
				aggs[base] = a
			}
			a.ops += float64(r.Ops)
			a.values += float64(r.ValuesDrawn)
			a.latWeighted += float64(r.Ops) * r.MeanNs
			a.valuesPerSec += r.OpsPerSec()
			a.workers++
		}
	}
	for base, a := range aggs {
		mean := 0.0
		if a.ops > 0 {
			mean = a.latWeighted / a.ops
		}
		rows = append(rows, MergedRow{
			Name:    base + "/all",
			NsPerOp: mean,
			Extra: map[string]float64{
				"ops":            a.ops,
				"values":         a.values,
				"values_per_sec": a.valuesPerSec,
				"workers":        float64(a.workers),
			},
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	for i := 1; i < len(rows); i++ {
		if rows[i].Name == rows[i-1].Name {
			return nil, fmt.Errorf("harness: duplicate merged row %q (same worker file passed twice?)", rows[i].Name)
		}
	}
	return rows, nil
}
