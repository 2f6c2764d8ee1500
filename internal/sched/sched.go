// Package sched is a controlled-scheduler harness for the repository's
// real concurrent substrates (runner.Async, counter.NetworkCounter,
// counter.CombiningCounter's slot protocol, counter.Barrier and
// pool.Pool). It runs each logical process as a goroutine
// that yields to a central scheduler at every synchronization point
// (balancer access, local-counter fetch, slot publish, lock attempt,
// buffer slot take), so exactly one
// process executes between yield points and the whole execution is a
// deterministic function of the scheduler's choice sequence.
// Concurrency bugs stop being flaky CI noise: every failing
// interleaving replays byte-for-byte from a printed seed or choice
// list, and a shrinker minimizes the schedule before reporting.
//
// The tasks run the implementations that ship (the atomics, mutexes
// and condition variables), not a model of them: every hooked entry
// point calls the production body, parking where production would
// spin or block. Token traces (FormatTokenSchedule, countnet's
// TraceTokens) and the Section 6 linearizability witnesses
// (LinearizabilityWitness) are schedules of the same walk. Strategies
// cover exhaustive DFS with a bounded-preemption budget for small
// configurations and seeded random walks (including a PCT-style
// priority scheduler) for large ones; see explore.go.
package sched

// The concurrent paths in this package are explored by the
// internal/sched harness; executions must replay deterministically
// from a recorded schedule (see docs/TESTING.md).
//
//netvet:sched-instrumented

import (
	"fmt"
	"runtime"
	"strings"
)

// OpStart labels a task's first scheduling slice, during which it runs
// from its start to its first yield point without touching shared
// state (instrumented substrates yield *before* every shared access).
const OpStart = "start"

// TaskFunc is the body of one logical process. All cross-task
// synchronization must go through the Yield hooks: call y.Step before
// each atomic shared access and y.Block instead of blocking on another
// task's progress. Instrumented substrate methods (Async.TraverseHooked,
// NetworkCounter.NextHooked, CombiningHandle.DrawHooked,
// Pool.PutHooked/GetHooked, ...) do this for you.
type TaskFunc func(y *Yield)

// Yield is the per-task handle through which a task cooperates with
// the central scheduler.
type Yield struct{ t *taskState }

// Step parks the task immediately before an atomic operation labelled
// op; the operation executes when the scheduler next picks this task.
func (y *Yield) Step(op string) {
	t := y.t
	t.pending = op
	t.park()
}

// Block parks the task until ready() reports true. The scheduler
// evaluates ready() only while every task is parked, so it may read
// state shared with other tasks (taking the same locks the task
// would). A task parked in Block is not runnable until ready() holds;
// if no task is runnable the run fails with a deadlock error.
func (y *Yield) Block(op string, ready func() bool) {
	t := y.t
	t.pending = op
	t.ready = ready
	t.park()
	t.ready = nil
}

// Op records one scheduling slice: Task ran, performing the atomic
// operation Label (OpStart for the slice before a task's first yield).
type Op struct {
	Task  int
	Label string
}

// Trace is the full record of one controlled execution. Choices alone
// reproduce the execution via the Replay strategy; Ops adds the
// operation labels for human consumption.
type Trace struct {
	Choices []int // task id chosen at each scheduling decision
	Ops     []Op  // parallel to Choices: what each slice executed
}

// Switches counts context switches: adjacent choices that moved to a
// different task. A shrinker drives this number down.
func (tr *Trace) Switches() int {
	n := 0
	for i := 1; i < len(tr.Choices); i++ {
		if tr.Choices[i] != tr.Choices[i-1] {
			n++
		}
	}
	return n
}

// String renders the schedule one slice per line.
func (tr *Trace) String() string {
	var sb strings.Builder
	for i, op := range tr.Ops {
		fmt.Fprintf(&sb, "%3d: task %d  %s\n", i, op.Task, op.Label)
	}
	return sb.String()
}

type taskState struct {
	id       int
	resume   chan struct{}
	parked   chan struct{}
	done     chan struct{}
	abort    chan struct{}
	pending  string      // label of the op the task is parked before
	ready    func() bool // non-nil while parked in Block
	finished bool
}

// park hands control back to the controller and waits to be resumed.
// If the controller aborted the run (deadlock or step budget), the
// task goroutine exits instead of leaking.
func (t *taskState) park() {
	select {
	case t.parked <- struct{}{}:
	case <-t.abort:
		runtime.Goexit()
	}
	select {
	case <-t.resume:
	case <-t.abort:
		runtime.Goexit()
	}
}

// Run executes the tasks under the strategy until every task finishes,
// returning the trace. It fails if no task is runnable before
// completion (deadlock: every live task is parked in Block with a
// false predicate) or if the schedule exceeds maxSteps slices
// (livelock guard). Strategies are stateful; use a fresh one per Run
// unless its documentation says otherwise.
func Run(strat Strategy, maxSteps int, tasks []TaskFunc) (*Trace, error) {
	abort := make(chan struct{})
	ts := make([]*taskState, len(tasks))
	for i, fn := range tasks {
		t := &taskState{
			id:      i,
			resume:  make(chan struct{}),
			parked:  make(chan struct{}),
			done:    make(chan struct{}),
			abort:   abort,
			pending: OpStart,
		}
		ts[i] = t
		fn := fn
		// This spawn IS the harness hook: the task goroutine runs only
		// when the central scheduler hands it the baton.
		//netvet:allow spawn
		go func() {
			select {
			case <-t.resume:
			case <-t.abort:
				return
			}
			fn(&Yield{t: t})
			close(t.done)
		}()
	}

	tr := &Trace{}
	prev := -1
	remaining := len(tasks)
	runnable := make([]int, 0, len(tasks))
	for remaining > 0 {
		if len(tr.Choices) >= maxSteps {
			close(abort)
			return tr, fmt.Errorf("sched: schedule exceeded step budget %d (livelock?)", maxSteps)
		}
		runnable = runnable[:0]
		for _, t := range ts {
			if t.finished {
				continue
			}
			if t.ready != nil && !t.ready() {
				continue
			}
			runnable = append(runnable, t.id)
		}
		if len(runnable) == 0 {
			var blocked []string
			for _, t := range ts {
				if !t.finished {
					blocked = append(blocked, fmt.Sprintf("task %d at %q", t.id, t.pending))
				}
			}
			close(abort)
			return tr, fmt.Errorf("sched: deadlock, no runnable task (%s)", strings.Join(blocked, ", "))
		}
		pick := strat.Pick(len(tr.Choices), prev, runnable)
		if pick < 0 || pick >= len(runnable) {
			pick = 0
		}
		t := ts[runnable[pick]]
		tr.Choices = append(tr.Choices, t.id)
		tr.Ops = append(tr.Ops, Op{Task: t.id, Label: t.pending})
		select {
		case t.resume <- struct{}{}:
		case <-t.done: // task with no yields finished before first resume: impossible, but stay safe
		}
		select {
		case <-t.parked:
		case <-t.done:
			t.finished = true
			remaining--
		}
		prev = t.id
	}
	return tr, nil
}
