package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"countnet/internal/core"
	"countnet/internal/factor"
	"countnet/internal/harness/syncsrv"
	"countnet/internal/obs"
)

// RunnerOptions configures process supervision, independent of the
// scenario itself.
type RunnerOptions struct {
	// Bin is the worker binary (countbench); BinArgs precede the
	// harness flags, so {Bin: "bin/countbench", BinArgs: ["-worker"]}
	// launches `countbench -worker -sync URL -id wN`. An empty Bin
	// runs workers as in-process goroutines over pipes — same
	// protocol, same sync server, no fork; unit tests use this mode.
	Bin     string
	BinArgs []string
	// OutDir, when set, receives one worker-<id>.json artifact per
	// worker for the benchjson collector.
	OutDir string
	// Log receives progress lines and worker stderr; nil discards.
	Log io.Writer
	// PhaseTimeout aborts a phase whose workers stop responding
	// (default 2m) — the harness must fail loudly, not hang CI.
	PhaseTimeout time.Duration
	// FlightDir, when set, receives per-worker flight-recorder dumps
	// whenever a kill scenario fires (a worker was lost mid-run). The
	// caller can also dump unconditionally via WriteFlightDumps — the
	// scenarios command does so when the post-run oracle fails.
	FlightDir string
}

// RunResult is everything one scenario run produced.
type RunResult struct {
	Scenario string
	Seed     int64
	Width    int
	Steps    []Step
	// Records maps worker id to its phase records, Issued to the sync
	// server's lease log, and Lost marks workers killed mid-run.
	Records map[string][]PhaseRecord
	Issued  map[string][]int64
	Lost    map[string]bool
	// Fleet maps phase index to the merged cross-worker obs snapshot
	// for that phase (each worker's latest "obs" line, folded with
	// obs.Merge; Origin names the contributing workers).
	Fleet map[int]*obs.Snapshot
	// Flights maps worker id to its final flight-recorder dump (from
	// the bye line, or the dying line for killed workers).
	Flights map[string][]obs.FlightEvent
	// Files lists the worker artifacts written to OutDir.
	Files []string
}

// FleetTable renders one merged per-phase table over every worker's
// obs snapshots: phase headers name the contributing workers, and
// chaining each phase's cumulative fleet snapshot against the
// previous phase's turns the counter columns into per-phase deltas.
func (r *RunResult) FleetTable() string {
	var b strings.Builder
	var prev *obs.Snapshot
	var prevTaken int64
	for i, step := range r.Steps {
		s := r.Fleet[i]
		if s == nil {
			continue
		}
		origins := ""
		if g := s.Group("worker"); g != nil {
			origins = g.Origin
		}
		fmt.Fprintf(&b, "== fleet phase %d (%s) workers[%s] ==\n", i, step.Name, origins)
		var elapsed time.Duration
		if prev != nil && s.TakenUnixNano > prevTaken {
			elapsed = time.Duration(s.TakenUnixNano - prevTaken)
		}
		b.WriteString(obs.RenderTable(prev, *s, elapsed))
		prev, prevTaken = s, s.TakenUnixNano
	}
	return b.String()
}

// WriteFlightDumps writes one flight-<scenario>-<worker>.json
// artifact per worker dump into dir, returning the paths.
func (r *RunResult) WriteFlightDumps(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(r.Flights))
	for id := range r.Flights {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var paths []string
	for _, id := range ids {
		ff := &FlightFile{
			Worker:   id,
			Scenario: r.Scenario,
			Seed:     r.Seed,
			Lost:     r.Lost[id],
			Events:   r.Flights[id],
		}
		path := filepath.Join(dir, fmt.Sprintf("flight-%s-%s.json", r.Scenario, id))
		if err := WriteFlightFile(path, ff); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// Check runs the cross-process oracle over the result.
func (r *RunResult) Check() error {
	reported := map[string][]int64{}
	for w, recs := range r.Records {
		for i := range recs {
			reported[w] = append(reported[w], recs[i].Values...)
		}
	}
	return CheckRun(r.Width, r.Issued, reported, r.Lost)
}

// checkBlocks rejects any lease size above syncsrv.MaxDraw, which the
// sync server would refuse mid-run.
func checkBlocks(opt Options, steps []Step) error {
	if opt.Block > syncsrv.MaxDraw {
		return fmt.Errorf("harness: block %d exceeds the %d-value draw limit", opt.Block, syncsrv.MaxDraw)
	}
	for _, st := range steps {
		if st.Block > syncsrv.MaxDraw {
			return fmt.Errorf("harness: step %s: block %d exceeds the %d-value draw limit", st.Name, st.Block, syncsrv.MaxDraw)
		}
		for w, b := range st.Blocks {
			if b > syncsrv.MaxDraw {
				return fmt.Errorf("harness: step %s: worker %s block %d exceeds the %d-value draw limit", st.Name, w, b, syncsrv.MaxDraw)
			}
		}
	}
	return nil
}

// Run executes one scenario: it starts a syncsrv server on an
// ephemeral port, launches the initial workers, drives every step
// (joins, leaves, phases, kills with barrier stand-ins), retires the
// survivors, and returns the collected records and issue log. The
// returned result still needs Check — Run itself only fails on
// harness-level errors (a worker that died unexpectedly, a hung
// phase), not on oracle violations.
func Run(sc Scenario, opt Options, ropt RunnerOptions) (*RunResult, error) {
	if opt.Workers < 1 {
		return nil, fmt.Errorf("harness: %d workers", opt.Workers)
	}
	if opt.Block < 1 {
		opt.Block = 1
	}
	if opt.PhaseDuration <= 0 {
		opt.PhaseDuration = 300 * time.Millisecond
	}
	if ropt.PhaseTimeout <= 0 {
		ropt.PhaseTimeout = 2 * time.Minute
	}
	if ropt.Log == nil {
		ropt.Log = io.Discard
	}

	fs := factor.Balanced(opt.Width, 3)
	if len(fs) < 2 {
		return nil, fmt.Errorf("harness: width %d has no factorization into balancers (use a composite width >= 4)", opt.Width)
	}
	net, err := core.L(fs...)
	if err != nil {
		return nil, fmt.Errorf("harness: building width-%d sync network: %w", opt.Width, err)
	}
	steps := sc.Steps(opt, rand.New(rand.NewSource(opt.Seed)))
	if err := checkBlocks(opt, steps); err != nil {
		return nil, err
	}

	hub := syncsrv.NewHub(net)
	srv := syncsrv.NewServer(hub)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // teardown of a run-scoped server
	}()

	r := &runner{
		opt:  opt,
		ropt: ropt,
		hub:  hub,
		url:  srv.URL(),
	}
	defer r.reap()

	fmt.Fprintf(ropt.Log, "harness: scenario %s: %d workers, width %d (L%v), %d phases, seed %d, sync %s\n",
		sc.Name, opt.Workers, opt.Width, fs, len(steps), opt.Seed, r.url)

	for i := 0; i < opt.Workers; i++ {
		if err := r.spawn(); err != nil {
			return nil, err
		}
	}
	for i, step := range steps {
		if err := r.runStep(i, step); err != nil {
			return nil, fmt.Errorf("harness: scenario %s phase %d (%s): %w", sc.Name, i, step.Name, err)
		}
	}
	if err := r.retireAll(); err != nil {
		return nil, err
	}
	// Every barrier call has returned: the barrier counters are
	// quiescent, so their tickets must be gap-free.
	if err := hub.Quiesce(); err != nil {
		return nil, fmt.Errorf("harness: scenario %s: %w", sc.Name, err)
	}

	res := &RunResult{
		Scenario: sc.Name,
		Seed:     opt.Seed,
		Width:    opt.Width,
		Steps:    steps,
		Records:  map[string][]PhaseRecord{},
		Issued:   hub.IssueLog(),
		Lost:     map[string]bool{},
		Fleet:    map[int]*obs.Snapshot{},
		Flights:  map[string][]obs.FlightEvent{},
	}
	for _, p := range r.all {
		res.Records[p.id] = p.records
		if p.lost {
			res.Lost[p.id] = true
		}
		// Fold each worker's latest per-phase snapshot into the fleet
		// view. Snapshots are cumulative per worker, so only the latest
		// one per (worker, phase) enters the merge — merging two
		// snapshots of the same registry would double-count.
		for idx, s := range p.snaps {
			res.Fleet[idx] = obs.Merge(res.Fleet[idx], s)
		}
		if p.flight != nil {
			res.Flights[p.id] = p.flight
		}
	}
	if ropt.OutDir != "" {
		if err := writeArtifacts(res, ropt.OutDir); err != nil {
			return nil, err
		}
	}
	if ropt.FlightDir != "" && len(res.Lost) > 0 {
		// A kill scenario fired: leave every worker's post-mortem ring
		// on disk beside the run artifacts.
		paths, err := res.WriteFlightDumps(ropt.FlightDir)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(ropt.Log, "harness: scenario %s: wrote %d flight dumps to %s\n", sc.Name, len(paths), ropt.FlightDir)
	}
	return res, nil
}

// writeArtifacts writes one WorkerFile per worker into dir.
func writeArtifacts(res *RunResult, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ids := make([]string, 0, len(res.Records))
	for id := range res.Records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		wf := &WorkerFile{
			Worker:   id,
			Scenario: res.Scenario,
			Seed:     res.Seed,
			Width:    res.Width,
			Lost:     res.Lost[id],
			Records:  res.Records[id],
		}
		path := filepath.Join(dir, fmt.Sprintf("worker-%s-%s.json", res.Scenario, id))
		if err := WriteWorkerFile(path, wf); err != nil {
			return err
		}
		res.Files = append(res.Files, path)
	}
	return nil
}

// runner supervises the worker set across one run.
type runner struct {
	opt    Options
	ropt   RunnerOptions
	hub    *syncsrv.Hub
	url    string
	nextID int
	live   []*proc // phase participants, spawn order
	all    []*proc // including retired and killed workers
}

// proc is one worker, in-process or forked.
type proc struct {
	id      string
	in      io.WriteCloser
	lines   chan Message
	cmd     *exec.Cmd          // nil for in-process workers
	cancel  context.CancelFunc // kills in-process workers
	done    chan struct{}
	lost    bool
	records []PhaseRecord
	// snaps holds the worker's latest obs snapshot per phase index;
	// flight its latest flight-recorder dump. Both are fed by next()
	// as the lines arrive; access is serialized because exactly one
	// goroutine awaits a given worker at a time.
	snaps  map[int]*obs.Snapshot
	flight []obs.FlightEvent
}

// spawn starts the next worker and waits for its ready line.
func (r *runner) spawn() error {
	id := WorkerID(r.nextID)
	r.nextID++
	p := &proc{id: id, lines: make(chan Message, 4), done: make(chan struct{}), snaps: map[int]*obs.Snapshot{}}

	var out io.ReadCloser
	if r.ropt.Bin == "" {
		ctx, cancel := context.WithCancel(context.Background())
		p.cancel = cancel
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		p.in = inW
		out = outR
		go func() {
			defer close(p.done)
			defer outW.Close()
			RunWorker(ctx, inR, outW, WorkerOptions{ID: id, SyncURL: r.url}) //nolint:errcheck // surfaced via protocol
		}()
	} else {
		args := append(append([]string{}, r.ropt.BinArgs...), "-sync", r.url, "-id", id)
		cmd := exec.Command(r.ropt.Bin, args...)
		cmd.Stderr = r.ropt.Log
		in, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		// Not cmd.StdoutPipe: Wait closes that pipe as soon as the
		// process exits, cutting off whatever the reader below has not
		// consumed yet — the tail of a bye line carrying a full flight
		// dump (~300 KB, past the pipe buffer) when a worker exits right
		// after writing it. The reader owns this pipe and closes it.
		stdout, childOut, err := os.Pipe()
		if err != nil {
			return err
		}
		cmd.Stdout = childOut
		err = cmd.Start()
		childOut.Close() // the child holds its own copy
		if err != nil {
			stdout.Close()
			return fmt.Errorf("harness: starting worker %s (%s): %w", id, r.ropt.Bin, err)
		}
		p.cmd = cmd
		p.in = in
		out = stdout
		go func() {
			defer close(p.done)
			cmd.Wait() //nolint:errcheck // kill paths exit nonzero by design
		}()
	}

	// One reader goroutine per worker lifetime: decode protocol lines
	// into the message channel until the stream ends.
	go func() {
		defer close(p.lines)
		defer out.Close()
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
		for sc.Scan() {
			var m Message
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				p.lines <- Message{Op: "error", Worker: p.id, Err: fmt.Sprintf("undecodable line %q: %v", sc.Text(), err)}
				return
			}
			p.lines <- m
		}
	}()

	m, err := p.next(r.ropt.PhaseTimeout)
	if err != nil {
		return fmt.Errorf("harness: worker %s never became ready: %w", id, err)
	}
	if m.Op != "ready" {
		return fmt.Errorf("harness: worker %s: expected ready, got %q (%s)", id, m.Op, m.Err)
	}
	fmt.Fprintf(r.ropt.Log, "harness: worker %s up (%s)\n", id, procKind(p))
	r.live = append(r.live, p)
	r.all = append(r.all, p)
	return nil
}

func procKind(p *proc) string {
	if p.cmd == nil {
		return "in-process"
	}
	return fmt.Sprintf("pid %d", p.cmd.Process.Pid)
}

// next awaits the worker's next protocol message. Observability lines
// ("obs" snapshots, flight dumps riding other ops) are stashed on the
// proc as they pass through, so callers only ever see the control
// flow: ready/record/dying/bye.
func (p *proc) next(timeout time.Duration) (Message, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case m, ok := <-p.lines:
			if !ok {
				return Message{}, fmt.Errorf("worker %s output ended", p.id)
			}
			if len(m.Flight) > 0 {
				// Dumps are cumulative ring contents; the latest wins.
				p.flight = m.Flight
			}
			if m.Op == "obs" {
				if m.Snapshot != nil {
					p.snaps[m.PhaseIndex] = m.Snapshot
				}
				continue
			}
			if m.Op == "error" {
				return m, fmt.Errorf("worker %s failed: %s", p.id, m.Err)
			}
			return m, nil
		case <-t.C:
			return Message{}, fmt.Errorf("worker %s: no message within %s", p.id, timeout)
		}
	}
}

// send writes one command line to the worker.
func (p *proc) send(cmd Command) error {
	data, err := json.Marshal(cmd)
	if err != nil {
		return err
	}
	if _, err := p.in.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("worker %s stdin: %w", p.id, err)
	}
	return nil
}

// kill forcibly terminates the worker (SIGKILL for processes, context
// cancel for in-process goroutines) and waits for it to be reaped.
func (p *proc) kill() {
	if p.cmd != nil {
		p.cmd.Process.Kill() //nolint:errcheck // already-dead is fine
	}
	if p.cancel != nil {
		p.cancel()
	}
	<-p.done
}

// runStep performs one scenario step: membership changes, then the
// phase with its per-worker overrides and fault injections.
func (r *runner) runStep(index int, step Step) error {
	for j := 0; j < step.Join; j++ {
		if err := r.spawn(); err != nil {
			return err
		}
	}
	for l := 0; l < step.Leave; l++ {
		if len(r.live) <= 1 {
			return fmt.Errorf("leave would empty the worker set")
		}
		p := r.live[len(r.live)-1]
		if err := r.retire(p); err != nil {
			return err
		}
		r.live = r.live[:len(r.live)-1]
	}

	parties := len(r.live)
	duration := step.Duration
	if duration <= 0 {
		duration = r.opt.PhaseDuration
	}
	fmt.Fprintf(r.ropt.Log, "harness: phase %d (%s): %d workers, %d kills, %s\n",
		index, step.Name, parties, len(step.Kill), duration)

	// Send every worker its personalized spec, then collect each
	// worker's phase outcome concurrently: records for survivors, the
	// dying handshake (kill + end-barrier stand-in) for victims. The
	// stand-ins must run while survivors are still blocked on the end
	// barrier, hence one goroutine per worker.
	var wg sync.WaitGroup
	errs := make(chan error, len(r.live))
	for _, p := range r.live {
		spec := &PhaseSpec{
			Index:     index,
			Name:      step.Name,
			Parties:   parties,
			Duration:  duration,
			Block:     r.opt.Block,
			TargetOps: step.TargetOps,
		}
		if b, ok := step.Blocks[p.id]; ok {
			spec.Block = b
		} else if step.Block > 0 {
			spec.Block = step.Block
		}
		if t, ok := step.Throttle[p.id]; ok {
			spec.Throttle = t
		} else if t, ok := step.Throttle[""]; ok {
			spec.Throttle = t
		}
		spec.DieAfterOps = step.Kill[p.id]
		if err := p.send(Command{Op: "phase", Phase: spec}); err != nil {
			return err
		}
		wg.Add(1)
		go func(p *proc, spec *PhaseSpec) {
			defer wg.Done()
			if err := r.awaitPhase(p, spec); err != nil {
				errs <- err
			}
		}(p, spec)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}

	// Drop killed workers from the live set.
	alive := r.live[:0]
	for _, p := range r.live {
		if !p.lost {
			alive = append(alive, p)
		}
	}
	r.live = alive
	if len(r.live) == 0 {
		return fmt.Errorf("every worker died")
	}
	return nil
}

// awaitPhase consumes one worker's outcome for the phase.
func (r *runner) awaitPhase(p *proc, spec *PhaseSpec) error {
	m, err := p.next(r.ropt.PhaseTimeout + spec.Duration)
	if err != nil {
		return err
	}
	switch m.Op {
	case "record":
		if m.Record == nil {
			return fmt.Errorf("worker %s: record message without record", p.id)
		}
		p.records = append(p.records, *m.Record)
		return nil
	case "dying":
		if spec.DieAfterOps <= 0 {
			return fmt.Errorf("worker %s died without an injected crash", p.id)
		}
		p.kill()
		p.lost = true
		fmt.Fprintf(r.ropt.Log, "harness: killed worker %s after %d draws; standing in at end barrier\n",
			p.id, spec.DieAfterOps)
		// Take the dead worker's place so the phase's end barrier
		// still sees all parties. The stand-in arrives through the
		// hub directly — same counting-network ticket path.
		if _, err := r.hub.Barrier(BarrierState(spec.Index, spec.Name, "end"), spec.Parties); err != nil {
			return fmt.Errorf("stand-in for %s: %w", p.id, err)
		}
		return nil
	default:
		return fmt.Errorf("worker %s: expected record or dying, got %q", p.id, m.Op)
	}
}

// retire gracefully exits one worker.
func (r *runner) retire(p *proc) error {
	if err := p.send(Command{Op: "exit"}); err != nil {
		return err
	}
	m, err := p.next(r.ropt.PhaseTimeout)
	if err != nil {
		return err
	}
	if m.Op != "bye" {
		return fmt.Errorf("worker %s: expected bye, got %q", p.id, m.Op)
	}
	p.in.Close()
	<-p.done
	fmt.Fprintf(r.ropt.Log, "harness: worker %s retired\n", p.id)
	return nil
}

// retireAll gracefully exits every live worker.
func (r *runner) retireAll() error {
	for _, p := range r.live {
		if err := r.retire(p); err != nil {
			return err
		}
	}
	r.live = nil
	return nil
}

// reap force-kills anything still running (error paths).
func (r *runner) reap() {
	for _, p := range r.all {
		select {
		case <-p.done:
		default:
			p.kill()
		}
	}
}
