package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"countnet/internal/obs"
)

// TestRunProducesFleetSnapshots: a multi-worker run must yield one
// merged obs snapshot per phase, with every worker contributing, and
// FleetTable must render them as per-phase sections.
func TestRunProducesFleetSnapshots(t *testing.T) {
	sc, err := LookupScenario("uniform")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, fastOptions(3), RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if len(res.Fleet) != len(res.Steps) {
		t.Fatalf("fleet snapshots for %d phases, want %d", len(res.Fleet), len(res.Steps))
	}
	var prevDraws int64
	for i := range res.Steps {
		s := res.Fleet[i]
		if s == nil {
			t.Fatalf("phase %d has no fleet snapshot", i)
		}
		g := s.Group("worker")
		if g == nil {
			t.Fatalf("phase %d fleet snapshot lost the worker group", i)
		}
		if g.Origin != "w0,w1,w2" {
			t.Fatalf("phase %d merged Origin = %q, want w0,w1,w2", i, g.Origin)
		}
		var draws int64
		for _, c := range g.Counters {
			if c.Name == "draws" {
				draws = c.Value
			}
		}
		// Snapshots are cumulative, so the fleet draw total must be
		// positive and non-decreasing across phases.
		if draws <= prevDraws {
			t.Fatalf("phase %d fleet draws = %d, want > %d", i, draws, prevDraws)
		}
		prevDraws = draws
	}
	// The merged per-phase draw totals must match the per-record ops
	// counts — snapshot aggregation and record aggregation are two
	// paths over the same traffic.
	var totalOps int64
	for _, recs := range res.Records {
		for i := range recs {
			totalOps += int64(recs[i].Ops)
		}
	}
	if prevDraws != totalOps {
		t.Fatalf("final fleet draws = %d, records say %d", prevDraws, totalOps)
	}

	table := res.FleetTable()
	for i, step := range res.Steps {
		want := "fleet phase " + string(rune('0'+i)) + " (" + step.Name + ")"
		if !strings.Contains(table, want) {
			t.Fatalf("fleet table missing %q:\n%s", want, table)
		}
	}
	if !strings.Contains(table, "workers[w0,w1,w2]") {
		t.Fatalf("fleet table missing worker origins:\n%s", table)
	}
}

// TestKillScenarioDumpsFlights: when the kill scenario fires, Run must
// capture the victim's flight dump from its dying line and write
// per-worker dump artifacts into FlightDir.
func TestKillScenarioDumpsFlights(t *testing.T) {
	sc, err := LookupScenario("kill")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := Run(sc, fastOptions(3), RunnerOptions{FlightDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if len(res.Lost) != 1 {
		t.Fatalf("kill scenario lost %d workers, want 1", len(res.Lost))
	}
	// Every worker must have left a flight dump: the victim via dying,
	// the survivors via bye.
	if len(res.Flights) != len(res.Records) {
		t.Fatalf("flight dumps from %d workers, want %d", len(res.Flights), len(res.Records))
	}
	for id := range res.Lost {
		flight := res.Flights[id]
		if len(flight) == 0 {
			t.Fatalf("killed worker %s left no flight dump", id)
		}
		// The victim died mid-phase after 5 draws: its dump must show
		// the phase-start edge and exactly 5 leases in the crash phase.
		var leases int
		for _, e := range flight {
			if e.Kind == obs.FlightBlockLease {
				leases++
			}
		}
		if leases < 5 {
			t.Fatalf("victim dump has %d leases, want >= 5: %+v", leases, flight)
		}

		path := filepath.Join(dir, "flight-kill-"+id+".json")
		ff, err := ReadFlightFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !ff.Lost || ff.Worker != id || ff.Scenario != "kill" {
			t.Fatalf("flight artifact = %+v", ff)
		}
		if !reflect.DeepEqual(ff.Events, flight) {
			t.Fatalf("flight artifact events diverge from in-memory dump")
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(res.Flights) {
		t.Fatalf("FlightDir has %d files, want %d", len(entries), len(res.Flights))
	}
}

// TestFlightFileGolden pins the on-disk dump format byte for byte:
// post-mortem tooling parses these artifacts, so the format only
// changes deliberately (update testdata/flight-golden.json in the
// same commit as the format change).
func TestFlightFileGolden(t *testing.T) {
	ff := &FlightFile{
		Worker:   "w1",
		Scenario: "kill",
		Seed:     42,
		Lost:     true,
		Events: []obs.FlightEvent{
			{Seq: 0, TS: 1000, Kind: obs.FlightPhaseStart, A: 0, B: 2},
			{Seq: 1, TS: 1100, Kind: obs.FlightBarrierArrive, A: 0, B: 0},
			{Seq: 2, TS: 1200, Kind: obs.FlightBlockLease, A: 0, B: 4},
			{Seq: 3, TS: 1300, Kind: obs.FlightOracleViolation, A: 7, B: 8},
		},
	}
	path := filepath.Join(t.TempDir(), "flight.json")
	if err := WriteFlightFile(path, ff); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flight-golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("flight dump format drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	back, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ff) {
		t.Fatalf("flight file round trip: got %+v want %+v", back, ff)
	}
}
