package counter_test

import (
	"slices"
	"testing"

	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/network"
	"countnet/internal/sched"
)

// FuzzCounterSchedules feeds arbitrary byte strings through the
// internal/sched ByteDecoder: every input denotes a valid interleaving
// of concurrent NetworkCounter.Next calls, and mutating bytes mutates
// the schedule locally. Whatever the interleaving, the values issued
// at quiescence must be exactly 0..N-1; the counter workload never
// blocks, so any error at all is a real bug. Failing inputs replay
// byte-for-byte from the corpus file.
func FuzzCounterSchedules(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 2, 0, 1, 2})
	f.Add([]byte{255, 127, 63, 31, 15, 7, 3, 1})
	net, err := core.K(2, 2)
	if err != nil {
		f.Fatal(err)
	}
	sys := sched.CounterSystem(net, 3, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, check := sys()
		tr, err := sched.Run(&sched.ByteDecoder{Data: data}, 20_000, tasks)
		if err == nil {
			err = check(tr)
		}
		if err != nil {
			t.Fatalf("schedule bytes %x: %v", data, err)
		}
	})
}

// FuzzAdaptiveSchedules drives the adaptive counter's transition
// window — concurrent draws racing a switcher that walks atomic →
// network → combining → atomic — through fuzz-chosen interleavings,
// with one-value refills so every draw crosses the epoch protocol.
// Unlike the plain counter workload the adaptive one blocks (epoch
// turnover, drain), so the decoder only ever picks among runnable
// tasks; any reported error is still a real bug, and the gap-free
// check at quiescence is the oracle.
func FuzzAdaptiveSchedules(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 2, 0, 1, 2})
	f.Add([]byte{255, 127, 63, 31, 15, 7, 3, 1})
	net, err := core.K(2, 2)
	if err != nil {
		f.Fatal(err)
	}
	sys := sched.AdaptiveSystem(func() *counter.AdaptiveCounter {
		return counter.NewAdaptiveCounter(net, counter.EngineAtomic, perDraw)
	}, []int{0, 0}, 2, sched.SwitchPlan(counter.EngineNetwork, counter.EngineCombining, counter.EngineAtomic))
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, check := sys()
		tr, err := sched.Run(&sched.ByteDecoder{Data: data}, 30_000, tasks)
		if err == nil {
			err = check(tr)
		}
		if err != nil {
			t.Fatalf("schedule bytes %x: %v", data, err)
		}
	})
}

// FuzzRunsVsBlock pins the run form of a lease to the value form:
// NextRuns on one fresh counter and NextBlock on another, fed the same
// request sizes, must yield identical values call by call once the
// runs are expanded, and every NextRuns result must hold at most width
// runs, none empty. family picks the network (0: the width-1 wire, 1:
// K, 2: L), factors its factorization (each byte maps to 2..5, at most
// three), and each byte of sizes one request, 0..255 values, so most
// requests are not multiples of the width.
func FuzzRunsVsBlock(f *testing.F) {
	f.Add(uint8(0), []byte{}, []byte{1, 5, 3, 0, 17})
	f.Add(uint8(1), []byte{0, 0}, []byte{1, 3, 4, 9, 255, 2})
	f.Add(uint8(2), []byte{2, 2}, []byte{255, 255, 255, 255, 1, 15, 16, 17})
	f.Add(uint8(1), []byte{0, 1}, []byte{5, 6, 7, 12, 13, 100})
	f.Add(uint8(2), []byte{1, 3, 0}, []byte{59, 60, 61, 0, 1, 119, 121})
	f.Fuzz(func(t *testing.T, family uint8, factors, sizes []byte) {
		net := fuzzNetwork(t, family, factors)
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		w := int64(net.Width())
		byRuns := counter.NewCombiningCounter(net)
		byBlock := counter.NewCombiningCounter(net)
		var runs []counter.Run
		var all []int64
		for call, b := range sizes {
			n := int(b)
			runs = byRuns.NextRuns(n, runs)
			if int64(len(runs)) > w {
				t.Fatalf("call %d: %d runs for %d values, width %d", call, len(runs), n, w)
			}
			var got []int64
			for _, r := range runs {
				if r.N < 1 {
					t.Fatalf("call %d: empty run %+v in %v", call, r, runs)
				}
				got = r.AppendValues(got, w)
			}
			want := make([]int64, n)
			byBlock.NextBlock(want)
			if !slices.Equal(got, want) {
				t.Fatalf("call %d (n=%d, width %d): runs %v expand to %v, NextBlock gave %v", call, n, w, runs, got, want)
			}
			all = append(all, got...)
		}
		slices.Sort(all)
		for i, v := range all {
			if v != int64(i) {
				t.Fatalf("values are not exactly 0..%d: position %d holds %d", len(all)-1, i, v)
			}
		}
	})
}

// fuzzNetwork builds the network FuzzRunsVsBlock's inputs name.
func fuzzNetwork(t *testing.T, family uint8, factors []byte) *network.Network {
	t.Helper()
	if len(factors) > 3 {
		factors = factors[:3]
	}
	ps := make([]int, len(factors))
	for i, b := range factors {
		ps[i] = 2 + int(b%4)
	}
	var net *network.Network
	var err error
	switch {
	case family%3 == 0 || len(ps) == 0:
		net = network.NewBuilder(1).Build("wire", nil)
	case family%3 == 1:
		net, err = core.K(ps...)
	default:
		net, err = core.L(ps...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return net
}
