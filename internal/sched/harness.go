// This file binds the controlled scheduler to the repository's real
// concurrent substrates, with invariant checks evaluated at
// quiescence. Each System builds fresh substrate state per schedule,
// so explorers and the shrinker can re-run interleavings at will.

package sched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"countnet/internal/counter"
	"countnet/internal/network"
	"countnet/internal/pool"
	"countnet/internal/runner"
	"countnet/internal/seq"
)

// TokenSystem drives one token per listed entry wire through a fresh
// runner.Async compile of net (atomic fetch-and-add balancers, the
// real concurrent traversal code). At quiescence it checks the two
// properties the paper guarantees for counting networks:
//
//   - the step property of the per-position exit counts, and
//   - quiescent consistency: the counts equal the schedule-independent
//     transfer function runner.ApplyTokens — every interleaving must
//     land on the same quiescent state.
//
// Failures embed the token paths of the offending schedule rendered by
// FormatTokenSchedule, so a violation reads like the paper's Figure 3.
func TokenSystem(net *network.Network, entries []int) System {
	w := net.Width()
	in := make([]int64, w)
	for _, e := range entries {
		in[e]++
	}
	want := runner.ApplyTokens(net, in)
	return func() ([]TaskFunc, func(tr *Trace) error) {
		a := runner.Compile(net)
		counts := make([]int64, w)
		tasks := make([]TaskFunc, len(entries))
		for i := range entries {
			e := entries[i]
			tasks[i] = func(y *Yield) {
				pos := a.TraverseHooked(e, y.Step)
				y.Step("exit")
				counts[pos]++
			}
		}
		check := func(tr *Trace) error {
			if !seq.IsStep(counts) {
				return fmt.Errorf("sched: quiescent exit counts %v violate the step property\n%s",
					counts, FormatTokenSchedule(net, entries, tr))
			}
			for i := range counts {
				if counts[i] != want[i] {
					return fmt.Errorf("sched: quiescent exit counts %v differ from transfer function %v (quiescent consistency)\n%s",
						counts, want, FormatTokenSchedule(net, entries, tr))
				}
			}
			return nil
		}
		return tasks, check
	}
}

// FormatTokenSchedule renders a TokenSystem schedule as one line per
// token — the wires visited, the gates traversed with arrival ranks,
// and the exit position with the Fetch&Increment value the token would
// be assigned — plus the exit counts: the textual analogue of the
// paper's Figure 3. It folds over the trace rather than re-walking the
// network: the k-th "gate g" slice is arrival k at gate g and leaves on
// port k mod width (the balancer rule), and a token's "exit" slice
// takes the next exit rank on its wire, so its value is
// rank·width + exit position.
func FormatTokenSchedule(net *network.Network, entries []int, tr *Trace) string {
	w := net.Width()
	posOf := make([]int, w)
	for pos, wire := range net.OutputOrder {
		posOf[wire] = pos
	}
	wire := append([]int(nil), entries...)
	paths := make([]strings.Builder, len(entries))
	exitRank := make([]int, len(entries))
	arrivals := make([]int, net.Size())
	exits := make([]int, w)
	for _, op := range tr.Ops {
		id := op.Task
		if op.Label == "exit" {
			exitRank[id] = exits[wire[id]]
			exits[wire[id]]++
			continue
		}
		num, ok := strings.CutPrefix(op.Label, "gate ")
		if !ok {
			continue // the start slice touches no shared state
		}
		gid, err := strconv.Atoi(num)
		if err != nil {
			panic(fmt.Sprintf("sched: malformed gate slice %q", op.Label))
		}
		g := &net.Gates[gid]
		rank := arrivals[gid]
		arrivals[gid]++
		wire[id] = g.Wires[rank%g.Width()]
		label := g.Label
		if label == "" {
			label = fmt.Sprintf("g%d", gid)
		}
		fmt.Fprintf(&paths[id], " -[%s #%d]-> wire %d", label, rank, wire[id])
	}
	var sb strings.Builder
	counts := make([]int64, w)
	for id, e := range entries {
		pos := posOf[wire[id]]
		counts[pos]++
		fmt.Fprintf(&sb, "token %d: wire %d%s  => exit position %d, value %d\n",
			id, e, paths[id].String(), pos, exitRank[id]*w+pos)
	}
	fmt.Fprintf(&sb, "exit counts (output order): %v\n", counts)
	return sb.String()
}

// BatchTokenSystem drives a mix of single tokens (one task per entry
// listed in entries, via Async.TraverseHooked) and count batches (one
// task per element of batches, via Async.TraverseBatchHooked) through
// one fresh compile of net. Every atomic balancer access — a batch's
// per-gate reservation or a token's per-gate step — is a scheduling
// point, so exploration covers arbitrary interleavings of batch RMWs
// with single-token RMWs. At quiescence the combined exit counts must
// satisfy the step property and equal the transfer function of the
// combined input — the invariant that makes TraverseBatch safe to mix
// with per-token traffic (counter.CombiningCounter relies on it).
func BatchTokenSystem(net *network.Network, entries []int, batches [][]int64) System {
	w := net.Width()
	in := make([]int64, w)
	for _, e := range entries {
		in[e]++
	}
	for _, b := range batches {
		for i, v := range b {
			in[i] += v
		}
	}
	want := runner.ApplyTokens(net, in)
	return func() ([]TaskFunc, func(tr *Trace) error) {
		a := runner.Compile(net)
		counts := make([]int64, w)
		tasks := make([]TaskFunc, 0, len(entries)+len(batches))
		for _, e := range entries {
			e := e
			tasks = append(tasks, func(y *Yield) {
				pos := a.TraverseHooked(e, y.Step)
				y.Step("exit")
				counts[pos]++
			})
		}
		for _, b := range batches {
			b := b
			tasks = append(tasks, func(y *Yield) {
				out := a.TraverseBatchHooked(b, y.Step)
				y.Step("exit")
				for pos, v := range out {
					counts[pos] += v
				}
			})
		}
		check := func(tr *Trace) error {
			if !seq.IsStep(counts) {
				return fmt.Errorf("sched: quiescent exit counts %v violate the step property (batch+token mix)", counts)
			}
			for i := range counts {
				if counts[i] != want[i] {
					return fmt.Errorf("sched: quiescent exit counts %v differ from transfer function %v (batch+token mix)", counts, want)
				}
			}
			return nil
		}
		return tasks, check
	}
}

// CounterSystem runs goroutines tasks each issuing opsPer values from
// one fresh NetworkCounter over net (entry wires cycled per task, as
// counter handles do). At quiescence the issued values must be exactly
// 0..N-1 — the Fetch&Increment contract: distinct, gap-free, none
// minted twice. Any atomicity violation in the balancer or
// local-counter path surfaces as a duplicate or gap.
func CounterSystem(net *network.Network, goroutines, opsPer int) System {
	w := net.Width()
	return func() ([]TaskFunc, func(tr *Trace) error) {
		c := counter.NewNetworkCounter(net, false)
		values := make([]int64, 0, goroutines*opsPer)
		tasks := make([]TaskFunc, goroutines)
		for g := 0; g < goroutines; g++ {
			g := g
			tasks[g] = func(y *Yield) {
				wire := g % w
				for k := 0; k < opsPer; k++ {
					v := c.NextOnHooked(wire, y.Step)
					values = append(values, v)
					wire++
					if wire == w {
						wire = 0
					}
				}
			}
		}
		check := func(tr *Trace) error {
			got := append([]int64(nil), values...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			for i, v := range got {
				if v != int64(i) {
					return fmt.Errorf("sched: counter values not gap-free at quiescence: sorted[%d] = %d (values %v)\nschedule:\n%s",
						i, v, got, tr)
				}
			}
			return nil
		}
		return tasks, check
	}
}

// LinearizabilityWitness searches directed executions of a fresh
// counter.NetworkCounter over net for the Section 6 violation: an
// operation B that starts strictly after operation A finishes yet
// receives a smaller value. Two tokens enter on wires c0, c1 and stall
// after s0, s1 balancer accesses, holding balancer state; then A draws
// to completion entering on wire ae, and only then B on wire be. Each
// execution is a Replay of four NextOnHooked tasks, one extra choice
// per task covering its start slice. The search assumes every path
// crosses Depth balancers (all of E14's networks do). desc names the
// first witness found.
func LinearizabilityWitness(net *network.Network) (desc string, vA, vB int64, found bool) {
	w, depth := net.Width(), net.Depth()
	full := depth + 2 // start slice, one per balancer, the local fetch
	repeat := func(choices []int, task, n int) []int {
		for i := 0; i < n; i++ {
			choices = append(choices, task)
		}
		return choices
	}
	for c0 := 0; c0 < w; c0++ {
		for c1 := 0; c1 < w; c1++ {
			for s0 := 1; s0 <= depth; s0++ {
				for s1 := 1; s1 <= depth; s1++ {
					for ae := 0; ae < w; ae++ {
						for be := 0; be < w; be++ {
							choices := repeat(nil, 0, 1+s0)
							choices = repeat(choices, 1, 1+s1)
							choices = repeat(choices, 2, full)
							choices = repeat(choices, 3, full)
							c := counter.NewNetworkCounter(net, false)
							var vals [4]int64
							tasks := make([]TaskFunc, 4)
							for i, e := range [4]int{c0, c1, ae, be} {
								tasks[i] = func(y *Yield) { vals[i] = c.NextOnHooked(e, y.Step) }
							}
							if _, err := Run(&Replay{Choices: choices}, 4*full, tasks); err != nil {
								panic(err) // no task blocks, and 4*full slices cover every path
							}
							if vals[3] < vals[2] {
								return fmt.Sprintf("stalled on wires %d,%d after %d,%d steps; A on %d, B on %d",
									c0, c1, s0, s1, ae, be), vals[2], vals[3], true
							}
						}
					}
				}
			}
		}
	}
	return "", 0, 0, false
}

// CombiningSystem runs one drawing task per entry of blocks, each
// making opsPer draws of that many values (every block > 0) through
// its own handle of one fresh counter.CombiningCounter over net, via
// CombiningHandle.DrawHooked. Every shared step of the slot protocol
// and of the combine pass — slot publish, combiner lock attempt, each
// gate reservation and exit claim, each done flip and done check — is
// a scheduling point, so exploration covers requests racing the
// combiner that collects them. At quiescence the values drawn must be
// exactly 0..N-1: a combiner serving a slot it never collected, or
// missing one it did, surfaces as a duplicate or a gap.
func CombiningSystem(net *network.Network, blocks []int, opsPer int) System {
	return func() ([]TaskFunc, func(tr *Trace) error) {
		c := counter.NewCombiningCounter(net)
		var values []int64
		tasks := make([]TaskFunc, len(blocks))
		for g, b := range blocks {
			h := c.Handle(g).(*counter.CombiningHandle)
			tasks[g] = func(y *Yield) {
				dst := make([]int64, b)
				for k := 0; k < opsPer; k++ {
					h.DrawHooked(dst, y.Step, y.Block)
					values = append(values, dst...)
				}
			}
		}
		check := func(tr *Trace) error {
			got := append([]int64(nil), values...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			for i, v := range got {
				if v != int64(i) {
					return fmt.Errorf("sched: combining counter values not gap-free at quiescence: sorted[%d] = %d (values %v)\nschedule:\n%s",
						i, v, got, tr)
				}
			}
			return nil
		}
		return tasks, check
	}
}

// PoolSystem runs pairs producer tasks and pairs consumer tasks over a
// fresh pool.Pool built on net; producer g puts the itemsPer items
// g*itemsPer..(g+1)*itemsPer-1 and every consumer gets itemsPer items.
// At quiescence each item must have been delivered exactly once —
// the pool's contract, inherited from gap-free counting on both the
// put and get networks. Unbalanced schedules that strand a getter are
// reported as deadlocks by Run.
func PoolSystem(net *network.Network, pairs, itemsPer int) System {
	return func() ([]TaskFunc, func(tr *Trace) error) {
		p := pool.New[int](net)
		got := make([]int, 0, pairs*itemsPer)
		tasks := make([]TaskFunc, 0, 2*pairs)
		for g := 0; g < pairs; g++ {
			g := g
			tasks = append(tasks, func(y *Yield) {
				for k := 0; k < itemsPer; k++ {
					p.PutHooked(g*itemsPer+k, y.Step)
				}
			})
		}
		for g := 0; g < pairs; g++ {
			tasks = append(tasks, func(y *Yield) {
				for k := 0; k < itemsPer; k++ {
					got = append(got, p.GetHooked(y.Step, y.Block))
				}
			})
		}
		check := func(tr *Trace) error {
			sorted := append([]int(nil), got...)
			sort.Ints(sorted)
			for i, v := range sorted {
				if v != i {
					return fmt.Errorf("sched: pool delivery not exactly-once: sorted[%d] = %d (got %v)\nschedule:\n%s",
						i, v, sorted, tr)
				}
			}
			return nil
		}
		return tasks, check
	}
}
