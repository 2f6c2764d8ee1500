// Schedule exploration of Barrier: concurrent arrivals run under the
// internal/sched controlled scheduler, with ticket draws traversing the
// real counting network via the hooked balancer path (AwaitHooked
// shares its lock and arrive with the shipped Await). Invariant: in
// every interleaving, each party's k-th arrival returns generation k —
// no lost wakeups, no generation skew, however balancer accesses and
// the release interleave. Lives in package counter_test because sched
// imports counter.
package counter_test

import (
	"fmt"
	"strings"
	"testing"

	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/sched"
)

// barrierSystem builds a sched.System of `parties` tasks that each
// pass through a fresh barrier over K(2,2) `rounds` times, arriving
// through arrive on distinct entry wires.
func barrierSystem(t *testing.T, parties, rounds int,
	arrive func(b *counter.Barrier, wire int, y *sched.Yield) int64) sched.System {
	t.Helper()
	return func() ([]sched.TaskFunc, func(*sched.Trace) error) {
		net, err := core.K(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		b := counter.NewBarrier(parties, net)
		gens := make([][]int64, parties)
		tasks := make([]sched.TaskFunc, parties)
		for i := 0; i < parties; i++ {
			tasks[i] = func(y *sched.Yield) {
				for r := 0; r < rounds; r++ {
					gens[i] = append(gens[i], arrive(b, i%net.Width(), y))
				}
			}
		}
		check := func(tr *sched.Trace) error {
			for i, gs := range gens {
				if len(gs) != rounds {
					return fmt.Errorf("party %d completed %d of %d rounds", i, len(gs), rounds)
				}
				for r, g := range gs {
					if g != int64(r) {
						return fmt.Errorf("party %d round %d returned generation %d (all: %v)", i, r, g, gs)
					}
				}
			}
			return nil
		}
		return tasks, check
	}
}

// TestBarrierUnderExploredSchedules drives random and bounded-
// preemption-exhaustive interleavings of concurrent barrier arrivals.
func TestBarrierUnderExploredSchedules(t *testing.T) {
	shipped := func(b *counter.Barrier, wire int, y *sched.Yield) int64 {
		return b.AwaitHooked(wire, y.Step, y.Block)
	}
	for _, tc := range []struct{ parties, rounds int }{
		{2, 3}, // reuse across generations
		{3, 2}, // more arrival races per generation
	} {
		name := fmt.Sprintf("p%dr%d", tc.parties, tc.rounds)
		sys := barrierSystem(t, tc.parties, tc.rounds, shipped)
		if rep := sched.ExploreRandom(sys, 0xba44, 150, 20_000); rep.Failure != nil {
			t.Errorf("%s random: %s", name, rep.Failure)
		}
		if rep := sched.ExploreDFS(sys, 1, 5_000, 20_000); rep.Failure != nil {
			t.Errorf("%s dfs: %s", name, rep.Failure)
		}
	}
}

// TestTicketGenerationRefuted: the naive ticket-ordered barrier —
// generation and release decided by the counting-network ticket value,
// as in "release when ticket == boundary-1" — deadlocks under reuse,
// because counting networks are not linearizable: a re-arriving party
// can draw a ticket belonging to the previous generation, leaving that
// generation's closing ticket with a party that never arrives again.
// The exploration must find such a schedule; this is the refutation
// that justifies Barrier's arrival-ordered release.
func TestTicketGenerationRefuted(t *testing.T) {
	refuted := func(b *counter.Barrier, wire int, y *sched.Yield) int64 {
		return b.TicketArriveHookedForTest(wire, y.Step, y.Block)
	}
	rep := sched.ExploreRandom(barrierSystem(t, 3, 2, refuted), 0xdead, 500, 20_000)
	if rep.Failure == nil {
		t.Fatal("ticket-ordered release survived exploration; expected a deadlock schedule")
	}
	if !strings.Contains(rep.Failure.Err.Error(), "deadlock") {
		t.Fatalf("unexpected failure kind: %v", rep.Failure.Err)
	}
}
