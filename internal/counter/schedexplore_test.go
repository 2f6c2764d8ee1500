// Schedule-exploration property suite for NetworkCounter and the
// CombiningCounter slot protocol: the real fetch-and-add balancer,
// local-counter and combiner code paths run under controlled
// interleavings (internal/sched), and at quiescence the issued values
// must be exactly 0..N-1. Lives in package counter_test because sched
// imports counter.
package counter_test

import (
	"strings"
	"testing"

	"countnet/internal/core"
	"countnet/internal/network"
	"countnet/internal/sched"
	"countnet/internal/verify"
)

// TestCounterGapFreeUnderExploredSchedules explores random and
// bounded-preemption-exhaustive interleavings of concurrent Next calls
// on K(2,2) and R(2,3) counters.
func TestCounterGapFreeUnderExploredSchedules(t *testing.T) {
	for _, tc := range []struct {
		name        string
		build       func() (*network.Network, error)
		gor, opsPer int
	}{
		{"K(2,2)", func() (*network.Network, error) { return core.K(2, 2) }, 3, 2},
		{"R(2,3)", func() (*network.Network, error) { return core.R(2, 3) }, 2, 2},
	} {
		net, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sys := sched.CounterSystem(net, tc.gor, tc.opsPer)
		if rep := sched.ExploreRandom(sys, 0xfeed, 150, 20_000); rep.Failure != nil {
			t.Errorf("%s random: %s", tc.name, rep.Failure)
		}
		if rep := sched.ExploreDFS(sys, 1, 20_000, 20_000); rep.Failure != nil {
			t.Errorf("%s dfs: %s", tc.name, rep.Failure)
		}
	}
}

// TestCounterDetectsBrokenNetwork: a counter built over a broken
// "counting" network must trip the gap-free invariant — proof the
// counter harness, not just the token harness, has teeth.
func TestCounterDetectsBrokenNetwork(t *testing.T) {
	net, err := core.K(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	mut := verify.MutateReverseGate(net, 0)
	sys := sched.CounterSystem(mut, 3, 1)
	rep := sched.ExploreRandom(sys, 5, 10_000, 20_000)
	if rep.Failure == nil {
		t.Fatal("counter over reversed K(2,2) not detected")
	}
	if !strings.Contains(rep.Failure.Err.Error(), "gap-free") {
		t.Fatalf("unexpected failure: %v", rep.Failure.Err)
	}
	t.Logf("detected in %d schedule(s): %v", rep.Schedules, rep.Failure.Err)
}

// TestCombiningSlotProtocolExplored explores the combining slot
// protocol: three handles drawing blocks of 1, 2 and 3 values, three
// draws each.
// Handles publish, race for the combiner lock with TryLock, and the
// winner drains every pending slot and flips each done; a combiner
// that served a slot it never collected, or missed one it did,
// surfaces as a gap or duplicate.
//
// Only the random pass has been shown to catch a combiner that flips
// a slot done before expanding its values (a mutant of combineLocked):
// the PCT pass and the 1-preemption DFS pass that mutant, the DFS
// after 528 to 618 schedules depending on where the mutant yields, so
// the DFS count logged below is no proof against that fault.
// FuzzCombiningSchedules' seed corpus catches it too.
func TestCombiningSlotProtocolExplored(t *testing.T) {
	net, err := core.K(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := sched.CombiningSystem(net, []int{1, 2, 3}, 3)
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
