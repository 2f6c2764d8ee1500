package counter_test

import (
	"testing"

	"countnet/internal/core"
	"countnet/internal/counter"
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
