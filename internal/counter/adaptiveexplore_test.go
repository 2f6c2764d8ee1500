// Schedule-exploration suite for the adaptive counter: the shipped
// draw, prefetch, epoch handoff (seal → drain → fence → install racing
// against publish → seal-check draws), governor decision step and
// combining slot protocol run under controlled interleavings, and at
// quiescence the values consumed plus those still buffered in handles
// must be exactly 0..N-1 across atomic↔network↔combining switches. Lives in package
// counter_test because sched imports counter.
package counter_test

import (
	"strings"
	"testing"

	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/sched"
)

// exploreBlocks are the drawer shapes every transition exploration
// runs under: one-value draws, each its own crossing of the epoch
// protocol, and prefetching Next, the shipped buffer path.
var exploreBlocks = []struct {
	name   string
	blocks []int
}{
	{"draw1", []int{1, 1}},
	{"prefetch", []int{0, 0}},
}

// adaptiveBuild returns a builder for a fresh adaptive counter on the
// given initial engine over K(2,2).
func adaptiveBuild(t *testing.T, initial counter.EngineKind) func() *counter.AdaptiveCounter {
	t.Helper()
	net, err := core.K(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return func() *counter.AdaptiveCounter {
		return counter.NewAdaptiveCounter(net, initial)
	}
}

// TestAdaptiveTransitionsExplored explores random, PCT, and
// bounded-preemption-exhaustive interleavings of concurrent draws with
// a switcher walking every engine: no value may be lost or duplicated
// across a transition, with or without prefetch.
func TestAdaptiveTransitionsExplored(t *testing.T) {
	plans := []struct {
		name    string
		initial counter.EngineKind
		plan    []counter.EngineKind
	}{
		{"atomic->network->combining", counter.EngineAtomic,
			[]counter.EngineKind{counter.EngineNetwork, counter.EngineCombining}},
		{"combining->atomic", counter.EngineCombining,
			[]counter.EngineKind{counter.EngineAtomic}},
		{"network->combining->network", counter.EngineNetwork,
			[]counter.EngineKind{counter.EngineCombining, counter.EngineNetwork}},
	}
	for _, p := range exploreBlocks {
		for _, tc := range plans {
			name := p.name + " " + tc.name
			sys := sched.AdaptiveSystem(adaptiveBuild(t, tc.initial), p.blocks, 2, sched.SwitchPlan(tc.plan...))
			if rep := sched.ExploreRandom(sys, 0xadab, 200, 30_000); rep.Failure != nil {
				t.Errorf("%s random: %s", name, rep.Failure)
			}
			if rep := sched.ExplorePCT(sys, 0xadab, 200, 30_000, 3, 3); rep.Failure != nil {
				t.Errorf("%s pct: %s", name, rep.Failure)
			}
			if rep := sched.ExploreDFS(sys, 1, 20_000, 30_000); rep.Failure != nil {
				t.Errorf("%s dfs: %s", name, rep.Failure)
			}
		}
	}
}

// TestAdaptiveRevisitsEngineExplored re-enters an engine already used
// in an earlier epoch (atomic → network → atomic), the case where the
// fence arithmetic must account for the engine's non-zero issued count
// from its previous epoch.
func TestAdaptiveRevisitsEngineExplored(t *testing.T) {
	sw := sched.SwitchPlan(counter.EngineNetwork, counter.EngineAtomic)
	for _, p := range exploreBlocks {
		sys := sched.AdaptiveSystem(adaptiveBuild(t, counter.EngineAtomic), p.blocks, 2, sw)
		if rep := sched.ExploreRandom(sys, 0xcafe, 300, 30_000); rep.Failure != nil {
			t.Errorf("%s random: %s", p.name, rep.Failure)
		}
		if rep := sched.ExploreDFS(sys, 1, 20_000, 30_000); rep.Failure != nil {
			t.Errorf("%s dfs: %s", p.name, rep.Failure)
		}
	}
}

// TestAdaptiveConcurrentSwitchersExplored races two switchers against
// each other and against draws — the governor-versus-SwitchTo race
// that the switch lock serializes. Every schedule must finish (no
// deadlock or step-budget hang) with gap-free values.
func TestAdaptiveConcurrentSwitchersExplored(t *testing.T) {
	a := sched.SwitchPlan(counter.EngineNetwork, counter.EngineCombining)
	b := sched.SwitchPlan(counter.EngineCombining, counter.EngineAtomic)
	for _, p := range exploreBlocks {
		sys := sched.AdaptiveSystem(adaptiveBuild(t, counter.EngineAtomic), p.blocks, 2, a, b)
		if rep := sched.ExploreRandom(sys, 0x5e1c, 200, 30_000); rep.Failure != nil {
			t.Errorf("%s random: %s", p.name, rep.Failure)
		}
		if rep := sched.ExplorePCT(sys, 0x5e1c, 200, 30_000, 4, 3); rep.Failure != nil {
			t.Errorf("%s pct: %s", p.name, rep.Failure)
		}
		if rep := sched.ExploreDFS(sys, 1, 20_000, 30_000); rep.Failure != nil {
			t.Errorf("%s dfs: %s", p.name, rep.Failure)
		}
	}
}

// TestCombiningSlotProtocolExplored explores the combining slot
// protocol on its own: a counter that starts on combining with no
// switcher, three handles drawing blocks of 1, 2 and 3 values. Handles publish, race for the combiner lock
// with TryLock, and the winner drains every pending slot and flips
// each done; a combiner that served a slot it never collected, or
// missed one it did, surfaces as a gap or duplicate.
func TestCombiningSlotProtocolExplored(t *testing.T) {
	sys := sched.AdaptiveSystem(adaptiveBuild(t, counter.EngineCombining), []int{1, 2, 3}, 2)
	if rep := sched.ExploreRandom(sys, 0xc0b1, 300, 30_000); rep.Failure != nil {
		t.Errorf("random: %s", rep.Failure)
	}
	if rep := sched.ExplorePCT(sys, 0xc0b1, 300, 30_000, 3, 3); rep.Failure != nil {
		t.Errorf("pct: %s", rep.Failure)
	}
	rep := sched.ExploreDFS(sys, 1, 20_000, 30_000)
	if rep.Failure != nil {
		t.Errorf("dfs: %s", rep.Failure)
	}
	t.Logf("dfs covered %d schedules", rep.Schedules)
}

// TestAdaptiveUndrainedSwitchRefuted proves the harness has teeth: a
// switch that skips the drain step reads its fence while draws are
// still in flight, and exploration must find a schedule that loses or
// duplicates a value.
func TestAdaptiveUndrainedSwitchRefuted(t *testing.T) {
	undrained := func(c *counter.AdaptiveCounter, y *sched.Yield) {
		c.UndrainedSwitchHookedForTest(counter.EngineNetwork, y.Step, y.Block)
	}
	sys := sched.AdaptiveSystem(adaptiveBuild(t, counter.EngineAtomic), []int{1, 1}, 2, undrained)
	rep := sched.ExploreRandom(sys, 7, 10_000, 30_000)
	if rep.Failure == nil {
		t.Fatal("undrained engine switch not detected by exploration")
	}
	if !strings.Contains(rep.Failure.Err.Error(), "gap-free") {
		t.Fatalf("unexpected failure: %v", rep.Failure.Err)
	}
	t.Logf("detected in %d schedule(s): %v", rep.Schedules, rep.Failure.Err)
}

// governScript walks the governor's decision step atomic → network →
// combining → atomic, two agreeing ticks per switch (the dwell), with
// a block grow and shrink while combining is active.
var governScript = []counter.GovernorTick{
	{Load: 3}, {Load: 3},
	{Load: 9}, {Load: 9},
	{Load: 9, Occupancy: 2}, {Load: 9, Occupancy: 0.5},
	{Load: 0.5}, {Load: 0.5},
}

// TestAdaptiveGovernorExplored runs the shipped governor decision step
// as a task beside the drawers: its engine read, block retunes and
// switches interleave with draws, and consumed ∪ unserved must stay
// exactly 0..N-1 — the governor mints no values of its own.
func TestAdaptiveGovernorExplored(t *testing.T) {
	for _, p := range exploreBlocks {
		sys := sched.AdaptiveSystem(adaptiveBuild(t, counter.EngineAtomic), p.blocks, 2, sched.GovernPlan(governScript...))
		if rep := sched.ExploreRandom(sys, 0x90e7, 200, 30_000); rep.Failure != nil {
			t.Errorf("%s random: %s", p.name, rep.Failure)
		}
		if rep := sched.ExplorePCT(sys, 0x90e7, 200, 30_000, 3, 3); rep.Failure != nil {
			t.Errorf("%s pct: %s", p.name, rep.Failure)
		}
		rep := sched.ExploreDFS(sys, 1, 20_000, 30_000)
		if rep.Failure != nil {
			t.Errorf("%s dfs: %s", p.name, rep.Failure)
		}
		t.Logf("%s: dfs covered %d schedules", p.name, rep.Schedules)
	}
}

// TestAdaptiveProbingGovernorRefuted gives the governor exploration its
// teeth: a decision step that also draws one probe value per tick and
// discards it leaves a value no caller holds, and exploration must
// report the range as not gap-free.
func TestAdaptiveProbingGovernorRefuted(t *testing.T) {
	probing := func(c *counter.AdaptiveCounter, y *sched.Yield) {
		c.ProbingGovernHookedForTest(governScript, y.Step, y.Block)
	}
	sys := sched.AdaptiveSystem(adaptiveBuild(t, counter.EngineAtomic), []int{1, 1}, 2, probing)
	rep := sched.ExploreRandom(sys, 7, 10_000, 30_000)
	if rep.Failure == nil {
		t.Fatal("probing governor not detected by exploration")
	}
	if !strings.Contains(rep.Failure.Err.Error(), "gap-free") {
		t.Fatalf("unexpected failure: %v", rep.Failure.Err)
	}
	t.Logf("detected in %d schedule(s): %v", rep.Schedules, rep.Failure.Err)
}
