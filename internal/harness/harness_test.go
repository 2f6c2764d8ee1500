package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"countnet/internal/core"
	"countnet/internal/factor"
	"countnet/internal/harness/syncsrv"
	"countnet/internal/obs"
)

// fastOptions keeps e2e runs brisk: short phases, small network.
func fastOptions(workers int) Options {
	return Options{Workers: workers, Width: 8, PhaseDuration: 40 * time.Millisecond, Block: 4, Seed: 1}
}

// TestScenariosEndToEnd runs every registered scenario with in-process
// workers over the real sync server and line protocol, and requires
// the cross-process oracle to pass. This is the harness's own tier-1
// gate; `make scenario-smoke` repeats it with forked OS processes.
func TestScenariosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-phase scenario runs")
	}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(sc, fastOptions(3), RunnerOptions{PhaseTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(); err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if len(res.Steps) < 3 {
				t.Fatalf("scenario ran %d phases, want >= 3", len(res.Steps))
			}
			total := 0
			for _, vals := range res.Issued {
				total += len(vals)
			}
			if total == 0 {
				t.Fatal("no values issued")
			}
			if sc.Name == "kill" && len(res.Lost) != 1 {
				t.Fatalf("kill scenario lost %d workers, want 1", len(res.Lost))
			}
			if sc.Name != "kill" && len(res.Lost) != 0 {
				t.Fatalf("scenario %s lost workers: %v", sc.Name, res.Lost)
			}
		})
	}
}

// TestRunWritesArtifacts: OutDir receives one well-formed worker file
// per worker, round-trippable and mergeable.
func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	sc, err := LookupScenario("uniform")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, fastOptions(2), RunnerOptions{OutDir: dir, PhaseTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 2 {
		t.Fatalf("wrote %d files, want 2: %v", len(res.Files), res.Files)
	}
	for _, path := range res.Files {
		wf, err := ReadWorkerFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if wf.Scenario != "uniform" || wf.Width != 8 || wf.Seed != 1 {
			t.Fatalf("worker file context = %+v", wf)
		}
		if len(wf.Records) != 3 {
			t.Fatalf("%s has %d records, want 3", filepath.Base(path), len(wf.Records))
		}
	}
	rows, err := MergeFiles(res.Files)
	if err != nil {
		t.Fatal(err)
	}
	// 3 phases x (2 workers + 1 aggregate).
	if len(rows) != 9 {
		t.Fatalf("merged %d rows, want 9", len(rows))
	}
}

// TestScenarioPlansReproducible: the same seed must yield the same
// plan (victim choice, skew deal), and a different seed a different
// plan for the randomized scenarios — the property that makes a
// recorded seed enough to reproduce a failing run.
func TestScenarioPlansReproducible(t *testing.T) {
	opt := fastOptions(4)
	for _, name := range []string{"straggler", "kill", "skew"} {
		sc, err := LookupScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		a := sc.Steps(opt, rand.New(rand.NewSource(7)))
		b := sc.Steps(opt, rand.New(rand.NewSource(7)))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different plans:\n%v\n%v", name, a, b)
		}
		differs := false
		for seed := int64(0); seed < 16 && !differs; seed++ {
			c := sc.Steps(opt, rand.New(rand.NewSource(seed)))
			differs = !reflect.DeepEqual(a, c)
		}
		if !differs {
			t.Fatalf("%s: plan ignores its seed", name)
		}
	}
}

// TestRunRejectsOversizedBlocks: a lease size the sync server would
// refuse (above syncsrv.MaxDraw) fails the run up front, whether it
// comes from the options, a step, or one worker's skewed share.
func TestRunRejectsOversizedBlocks(t *testing.T) {
	big := syncsrv.MaxDraw + 1
	for _, c := range []struct {
		name  string
		block int
		step  Step
	}{
		{"options", big, Step{Name: "s"}},
		{"step", 4, Step{Name: "s", Block: big}},
		{"worker", 4, Step{Name: "s", Blocks: map[string]int{"w0": big}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := Scenario{Name: "oversized", Steps: func(Options, *rand.Rand) []Step { return []Step{c.step} }}
			opt := fastOptions(1)
			opt.Block = c.block
			_, err := Run(sc, opt, RunnerOptions{PhaseTimeout: 5 * time.Second})
			if err == nil || !strings.Contains(err.Error(), "draw limit") {
				t.Fatalf("err = %v, want a draw-limit error", err)
			}
		})
	}
}

// TestLookupScenario covers the registry lookups the CLI depends on.
func TestLookupScenario(t *testing.T) {
	if _, err := LookupScenario("uniform"); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupScenario("nope"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("err = %v", err)
	}
	names := map[string]bool{}
	for _, sc := range Scenarios() {
		if names[sc.Name] {
			t.Fatalf("duplicate scenario %q", sc.Name)
		}
		names[sc.Name] = true
	}
	for _, want := range []string{"uniform", "burst", "skew", "joinleave", "straggler", "kill"} {
		if !names[want] {
			t.Fatalf("registry lacks %q (have %v)", want, names)
		}
	}
}

// startTestServer boots a run-scoped sync server on an ephemeral port
// and returns its base URL.
func startTestServer(t *testing.T) string {
	t.Helper()
	net, err := core.L(factor.Balanced(8, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	hub := syncsrv.NewHub(net)
	srv := syncsrv.NewServer(hub)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // test teardown
	})
	return srv.URL()
}

// TestWorkerProtocol drives one RunWorker directly over pipes against
// a live sync server: ready handshake, a deterministic TargetOps
// phase, then exit/bye.
func TestWorkerProtocol(t *testing.T) {
	srv := startTestServer(t)

	inR, inW := io.Pipe()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		// out is only read after done delivers, so the worker goroutine's
		// writes happen-before the reads.
		done <- RunWorker(context.Background(), inR, &out, WorkerOptions{ID: "w0", SyncURL: srv})
	}()

	spec := &PhaseSpec{Index: 0, Name: "solo", Parties: 1, Block: 2, TargetOps: 5, Duration: time.Second}
	send := func(c Command) {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inW.Write(append(data, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	send(Command{Op: "phase", Phase: spec})
	send(Command{Op: "exit"})
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var msgs []Message
	var obsMsgs []Message
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var m Message
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("undecodable %q: %v", line, err)
		}
		if m.Op == "obs" {
			// Snapshot streaming rides the same pipe; the control
			// protocol below is checked without it.
			obsMsgs = append(obsMsgs, m)
			continue
		}
		msgs = append(msgs, m)
	}
	if len(msgs) != 3 || msgs[0].Op != "ready" || msgs[1].Op != "record" || msgs[2].Op != "bye" {
		t.Fatalf("protocol = %+v", msgs)
	}
	// The end-of-phase snapshot always precedes the record; it must
	// describe this worker's draw traffic, tagged with its identity.
	if len(obsMsgs) == 0 {
		t.Fatal("worker sent no obs snapshots")
	}
	last := obsMsgs[len(obsMsgs)-1]
	if last.Snapshot == nil || last.PhaseIndex != 0 {
		t.Fatalf("obs message = %+v", last)
	}
	g := last.Snapshot.Group("worker")
	if g == nil || g.Origin != "w0" {
		t.Fatalf("obs snapshot group = %+v", g)
	}
	var draws int64
	for _, c := range g.Counters {
		if c.Name == "draws" {
			draws = c.Value
		}
	}
	if draws != 5 {
		t.Fatalf("obs snapshot draws = %d, want 5", draws)
	}
	// The bye line carries the flight dump: phase edges, barrier
	// arrivals, and one block lease per draw.
	flight := msgs[2].Flight
	if len(flight) == 0 {
		t.Fatal("bye carried no flight dump")
	}
	kinds := map[obs.FlightKind]int{}
	for _, e := range flight {
		kinds[e.Kind]++
	}
	if kinds[obs.FlightPhaseStart] != 1 || kinds[obs.FlightPhaseEnd] != 1 ||
		kinds[obs.FlightBlockLease] != 5 || kinds[obs.FlightBarrierArrive] != 2 {
		t.Fatalf("flight kind counts = %v", kinds)
	}
	rec := msgs[1].Record
	if rec == nil || rec.Ops != 5 || rec.ValuesDrawn != 10 || len(rec.Values) != 10 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Worker != "w0" || rec.Phase != "solo" {
		t.Fatalf("record identity = %+v", rec)
	}
	if err := CheckValues(8, rec.Values, 0); err != nil {
		t.Fatalf("solo worker values: %v", err)
	}
}

// TestWorkerRejectsBadOptions: a worker without identity or server
// must fail before touching the protocol.
func TestWorkerRejectsBadOptions(t *testing.T) {
	var out bytes.Buffer
	if err := RunWorker(context.Background(), strings.NewReader(""), &out, WorkerOptions{ID: "", SyncURL: "http://x"}); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := RunWorker(context.Background(), strings.NewReader(""), &out, WorkerOptions{ID: "w0", SyncURL: ""}); err == nil {
		t.Fatal("empty sync URL accepted")
	}
}

// TestBarrierStateNames pins the phase state naming both sides of the
// protocol must agree on.
func TestBarrierStateNames(t *testing.T) {
	spec := PhaseSpec{Index: 2, Name: "crash"}
	if got := spec.startState(); got != BarrierState(2, "crash", "start") {
		t.Fatalf("startState = %q", got)
	}
	if got, want := BarrierState(2, "crash", "end"), "phase2:crash:end"; got != want {
		t.Fatalf("BarrierState = %q, want %q", got, want)
	}
}
