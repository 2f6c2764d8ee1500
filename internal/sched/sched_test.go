package sched_test

import (
	"reflect"
	"strings"
	"testing"

	"countnet/internal/baseline"
	"countnet/internal/core"
	"countnet/internal/network"
	"countnet/internal/pool"
	"countnet/internal/sched"
	"countnet/internal/verify"
)

func mustK22(t testing.TB) *network.Network {
	t.Helper()
	n, err := core.K(2, 2)
	if err != nil {
		t.Fatalf("K(2,2): %v", err)
	}
	return n
}

func mustBitonic4(t testing.TB) *network.Network {
	t.Helper()
	n, err := baseline.Bitonic(4)
	if err != nil {
		t.Fatalf("bitonic(4): %v", err)
	}
	return n
}

// uniformEntries returns perWire tokens on every wire.
func uniformEntries(w, perWire int) []int {
	out := make([]int, 0, w*perWire)
	for k := 0; k < perWire; k++ {
		for wire := 0; wire < w; wire++ {
			out = append(out, wire)
		}
	}
	return out
}

// TestSameSeedSameTrace is the replayability contract: two runs of the
// same system under the same seed produce byte-for-byte identical
// traces, and replaying the recorded choices reproduces them again.
func TestSameSeedSameTrace(t *testing.T) {
	sys := sched.TokenSystem(mustBitonic4(t), uniformEntries(4, 2))
	const seed = 0xdecafbad
	tr1, err1 := sched.ReplaySeed(sys, seed, 10_000)
	tr2, err2 := sched.ReplaySeed(sys, seed, 10_000)
	if err1 != nil || err2 != nil {
		t.Fatalf("runs failed: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(tr1.Ops, tr2.Ops) || !reflect.DeepEqual(tr1.Choices, tr2.Choices) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", tr1, tr2)
	}
	tr3, err3 := sched.ReplayChoices(sys, tr1.Choices, 10_000)
	if err3 != nil {
		t.Fatalf("replay from choices failed: %v", err3)
	}
	if !reflect.DeepEqual(tr1.Ops, tr3.Ops) {
		t.Fatalf("choice replay diverged:\n%s\nvs\n%s", tr1, tr3)
	}
}

// TestExploreRandomCorrectNetworks: no interleaving of the real
// concurrent traversal may violate the step property or quiescent
// consistency on genuine counting networks.
func TestExploreRandomCorrectNetworks(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *network.Network
	}{
		{"K(2,2)", mustK22(t)},
		{"bitonic4", mustBitonic4(t)},
	} {
		sys := sched.TokenSystem(tc.net, uniformEntries(tc.net.Width(), 2))
		if rep := sched.ExploreRandom(sys, 1, 300, 10_000); rep.Failure != nil {
			t.Errorf("%s: unexpected failure after %d schedules: %s", tc.name, rep.Schedules, rep.Failure)
		}
	}
}

// TestExploreDFSExhaustsSmallConfig: bounded-preemption DFS terminates
// on a tiny configuration, covers more than one schedule, and finds no
// violation.
func TestExploreDFSExhaustsSmallConfig(t *testing.T) {
	sys := sched.TokenSystem(mustK22(t), []int{0, 1, 2})
	rep := sched.ExploreDFS(sys, 2, 100_000, 10_000)
	if rep.Failure != nil {
		t.Fatalf("violation on correct network: %s", rep.Failure)
	}
	if rep.Schedules < 2 {
		t.Fatalf("DFS explored only %d schedules", rep.Schedules)
	}
	if rep.Schedules == 100_000 {
		t.Fatalf("DFS did not exhaust the bounded tree")
	}
	t.Logf("DFS exhausted bounded tree in %d schedules", rep.Schedules)
}

// TestDetectsReversedK22 is the harness-has-teeth acceptance check:
// reversing the single balancer of K(2,2) must be caught as a step
// property violation within 10,000 explored schedules (it is in fact
// caught immediately — quiescent counts are schedule-independent).
func TestDetectsReversedK22(t *testing.T) {
	mut := verify.MutateReverseGate(mustK22(t), 0)
	sys := sched.TokenSystem(mut, uniformEntries(4, 1)[:2]) // 2 tokens: wires 0,1
	rep := sched.ExploreRandom(sys, 7, 10_000, 10_000)
	if rep.Failure == nil {
		t.Fatalf("reversed K(2,2) not detected in %d schedules", rep.Schedules)
	}
	if rep.Schedules > 10_000 {
		t.Fatalf("detection took %d > 10000 schedules", rep.Schedules)
	}
	if !strings.Contains(rep.Failure.Err.Error(), "step property") &&
		!strings.Contains(rep.Failure.Err.Error(), "transfer function") {
		t.Fatalf("unexpected failure kind: %v", rep.Failure.Err)
	}
	// The printed seed must reproduce the identical failing trace.
	tr, err := sched.ReplaySeed(sys, rep.Failure.Seed, 10_000)
	if err == nil {
		t.Fatalf("seed replay did not fail")
	}
	if !reflect.DeepEqual(tr.Ops, rep.Failure.Trace.Ops) {
		t.Fatalf("seed replay produced a different trace")
	}
	t.Logf("detected in %d schedule(s): %v", rep.Schedules, rep.Failure.Err)
}

// brokenEntries finds a token load on which the mutant's quiescent
// counts violate the step property (nil if the mutation is absorbed at
// these loads). A uniform load won't do: full rounds exit flat on any
// balancing network, so the mutation only shows on skewed inputs.
func brokenEntries(mut *network.Network, maxPerWire int) []int {
	bad := verify.CountsExhaustive(mut, maxPerWire)
	if bad == nil {
		return nil
	}
	var entries []int
	for wire, cnt := range bad {
		for k := int64(0); k < cnt; k++ {
			entries = append(entries, wire)
		}
	}
	return entries
}

// TestDetectsMutatedBitonic runs the deeper teeth check on a
// multi-layer network, via DFS and PCT as well as the random walk.
func TestDetectsMutatedBitonic(t *testing.T) {
	base := mustBitonic4(t)
	var sys sched.System
	var tasks int
	for i := 0; i < base.Size(); i++ {
		if entries := brokenEntries(verify.MutateReverseGate(base, i), 2); entries != nil {
			sys = sched.TokenSystem(verify.MutateReverseGate(base, i), entries)
			tasks = len(entries)
			t.Logf("reversing gate %d breaks counting on load %v", i, entries)
			break
		}
	}
	if sys == nil {
		t.Fatal("no single gate reversal of bitonic(4) breaks counting — verifier teeth gone")
	}
	if rep := sched.ExploreRandom(sys, 3, 10_000, 10_000); rep.Failure == nil {
		t.Errorf("random walk missed reversed bitonic gate")
	}
	if rep := sched.ExploreDFS(sys, 1, 10_000, 10_000); rep.Failure == nil {
		t.Errorf("DFS missed reversed bitonic gate")
	}
	if rep := sched.ExplorePCT(sys, 3, 10_000, 10_000, tasks, 3); rep.Failure == nil {
		t.Errorf("PCT missed reversed bitonic gate")
	}
}

// TestShrinkMinimizesFailure: the shrinker must return a still-failing
// schedule with no more context switches than the original, and the
// minimized choices must replay to a failure.
func TestShrinkMinimizesFailure(t *testing.T) {
	base := mustBitonic4(t)
	var sys sched.System
	for i := 0; i < base.Size(); i++ {
		if entries := brokenEntries(verify.MutateRemoveGate(base, i), 2); entries != nil {
			sys = sched.TokenSystem(verify.MutateRemoveGate(base, i), entries)
			break
		}
	}
	if sys == nil {
		t.Fatal("no gate removal of bitonic(4) breaks counting")
	}
	rep := sched.ExploreRandom(sys, 11, 10_000, 10_000)
	if rep.Failure == nil {
		t.Fatal("mutant not caught by token harness")
	}
	min := sched.Shrink(sys, rep.Failure, 10_000, 2_000)
	if min.Err == nil {
		t.Fatalf("shrunk failure lost the error")
	}
	if min.Trace.Switches() > rep.Failure.Trace.Switches() {
		t.Fatalf("shrink increased switches: %d -> %d",
			rep.Failure.Trace.Switches(), min.Trace.Switches())
	}
	if _, err := sched.ReplayChoices(sys, min.Trace.Choices, 10_000); err == nil {
		t.Fatalf("minimized choices no longer fail")
	}
	t.Logf("shrunk %d choices (%d switches) to %d choices (%d switches)",
		len(rep.Failure.Trace.Choices), rep.Failure.Trace.Switches(),
		len(min.Trace.Choices), min.Trace.Switches())
}

// TestByteDecoderTotality: every byte string decodes to a valid
// schedule on a correct system (the fuzz-target contract).
func TestByteDecoderTotality(t *testing.T) {
	sys := sched.TokenSystem(mustK22(t), uniformEntries(4, 1))
	for _, data := range [][]byte{nil, {0}, {255, 254, 253}, {1, 1, 2, 3, 5, 8, 13, 21}, make([]byte, 1000)} {
		tasks, check := sys()
		tr, err := sched.Run(&sched.ByteDecoder{Data: data}, 10_000, tasks)
		if err == nil {
			err = check(tr)
		}
		if err != nil {
			t.Fatalf("bytes %v: %v", data, err)
		}
	}
}

// TestDeadlockDetection: a consumer with no matching producer must be
// reported as a deadlock, naming the blocked operation — not hang.
func TestDeadlockDetection(t *testing.T) {
	p := pool.New[int](mustK22(t))
	tasks := []sched.TaskFunc{
		func(y *sched.Yield) { p.GetHooked(y.Step, y.Block) },
	}
	_, err := sched.Run(sched.NewRandomWalk(1), 1000, tasks)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

// TestFormatTokenSchedule: the rendered trace names every token and
// its exit, so failures read like the paper's Figure 3.
func TestFormatTokenSchedule(t *testing.T) {
	net := mustBitonic4(t)
	entries := uniformEntries(4, 1)
	sys := sched.TokenSystem(net, entries)
	tr, err := sched.ReplaySeed(sys, 99, 10_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := sched.FormatTokenSchedule(net, entries, tr)
	for _, want := range []string{"token 0", "token 3", "exit position"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

// TestTokenPathsDifferButCountsAgree: schedules DO change individual
// token paths (otherwise the schedule-independence explorations would
// be vacuous), yet the quiescent exit counts stay the same.
func TestTokenPathsDifferButCountsAgree(t *testing.T) {
	net, err := baseline.Bitonic(8)
	if err != nil {
		t.Fatal(err)
	}
	entries := uniformEntries(8, 3)
	render := func(strat sched.Strategy) (paths, counts string) {
		tasks, _ := sched.TokenSystem(net, entries)()
		tr, err := sched.Run(strat, 10_000, tasks)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		out := sched.FormatTokenSchedule(net, entries, tr)
		cut := strings.LastIndex(out, "exit counts")
		return out[:cut], out[cut:]
	}
	serialPaths, serialCounts := render(&sched.Replay{})
	walkPaths, walkCounts := render(sched.NewRandomWalk(5))
	if serialCounts != walkCounts {
		t.Fatalf("counts differ between schedules: %q vs %q", serialCounts, walkCounts)
	}
	if serialPaths == walkPaths {
		t.Fatalf("serial and random-walk schedules rendered identical paths:\n%s", serialPaths)
	}
}
