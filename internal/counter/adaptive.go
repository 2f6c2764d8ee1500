package counter

// Adaptive counting front-end: one Fetch&Increment counter that tracks
// the measured lower envelope of the three static engines. The
// crossover structure is the paper's contention analysis made concrete
// (and measured in BENCH_counter.json / BENCH_adaptive.json): a raw
// atomic word wins while contention is low, a counting network spreads
// load once a single word saturates, and flat combining wins once
// there is enough concurrent demand to amortize whole batches. No
// static choice is fastest across a load sweep, so AdaptiveCounter
// watches its own observability signals and switches engine live.
//
// # Epoch handoff
//
// Correctness across a switch is the interesting part: the counter
// must keep the gap-free step property (exactly 0..N-1 issued at
// quiescence) even though the underlying engine changes mid-stream.
// Draws are routed by an atomic epoch pointer:
//
//	value = epoch.offset + engineValue
//
// where engineValue is whatever the epoch's engine hands out. A switch
// seals the current epoch, drains it (waits until no handle is mid-
// draw in it), reads the outgoing engine's issued count as the fence,
// folds it into the running base, and installs a fresh epoch whose
// offset makes the incoming engine continue exactly at the base:
//
//	base      = outgoing.offset + issued(outgoing engine)
//	new epoch = {kind, offset: base - issued(incoming engine)}
//
// Handles publish the epoch they are about to draw from in a padded
// per-handle slot and then re-check the seal (both seq-cst, a Dekker
// handshake with the switcher's seal-then-scan), so a draw either
// lands entirely in an unsealed epoch or retries in the next one — no
// value is minted against a stale offset. The scheme is explored under
// internal/sched (see adaptiveexplore_test.go) and stressed under
// -race; disabling the drain demonstrably loses the property.
//
// # Prefetch
//
// Handles amortize the epoch protocol (and, under the atomic engine,
// the contended fetch-and-add itself) by drawing small blocks into a
// fixed per-handle buffer and serving Next from it. Buffered values
// count as issued: they were handed to that handle. Gap-free oracles
// account for them via Unserved.
//
// # Governor
//
// StartGovernor runs a background loop that measures the offered load
// from the handles' own draws and decides on it. With observability on,
// each handle times one draw in obs.SampleEvery (an owner-local tick)
// into the sampled draw_ns histogram. By Little's law, SampleEvery ×
// the time those draws took, over the elapsed time, is the mean number
// of draws in flight inside the counter — the x-axis of the
// BENCH_counter crossover plot. The decision step bands the estimate
// (with hysteresis and a dwell requirement so jitter cannot thrash),
// and while combining is active the prefetch block grows or shrinks
// with the observed combiner pass occupancy. The governor draws no
// values of its own, so the exact range holds while it runs; its
// decision step is explored under internal/sched through GovernHooked.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"countnet/internal/network"
	"countnet/internal/obs"
)

// EngineKind identifies one of the static engines the adaptive counter
// switches between, ordered from lightest to heaviest machinery.
type EngineKind int32

const (
	// EngineAtomic is the centralized fetch-and-add word.
	EngineAtomic EngineKind = iota
	// EngineNetwork is the per-token counting-network counter.
	EngineNetwork
	// EngineCombining is the flat-combining counter.
	EngineCombining

	numEngineKinds = 3
)

// String returns the engine's name as used in obs status and bench
// lane labels.
func (k EngineKind) String() string {
	switch k {
	case EngineAtomic:
		return "atomic"
	case EngineNetwork:
		return "network"
	case EngineCombining:
		return "combining"
	}
	return fmt.Sprintf("engine(%d)", int32(k))
}

// maxPrefetch bounds the per-handle buffer (and thus the combining
// block); 64 matches the block size the static combining lane is
// benchmarked at.
const maxPrefetch = 64

// The governor's constants, calibrated on the committed benchmark data
// (BENCH_counter.json crossovers, BENCH_adaptive.json sweep: the
// atomic prefetch of 32 keeps the per-value lane inside 15% of the
// best block lane across the whole g sweep).
const (
	govInterval = 2 * time.Millisecond // between governor ticks
	// The load estimate (mean draws in flight) picks atomic at or
	// below atomicMaxLoad, combining above networkMaxLoad, and the
	// network counter between; a switch needs the estimate beyond the
	// edge by the hysteresis fraction for dwellTicks consecutive ticks.
	atomicMaxLoad  = 2.0
	networkMaxLoad = 6.0
	hysteresis     = 0.3
	dwellTicks     = 2
	// Refill sizes for handle Next. The combining block starts at
	// combineBlockStart and doubles while the mean pending slots per
	// combiner pass is at least growOccupancy, halves while it is at
	// most shrinkOccupancy, within [combineBlockMin, combineBlockMax].
	atomicPrefetch    = 32
	networkPrefetch   = 8
	combineBlockStart = 16
	combineBlockMin   = 8
	combineBlockMax   = maxPrefetch
	growOccupancy     = 1.5
	shrinkOccupancy   = 0.75
)

// adaptiveEpoch routes draws to one engine with one value offset. A
// fresh epoch is allocated per switch, so pointer identity
// distinguishes generations.
type adaptiveEpoch struct {
	offset int64
	kind   EngineKind
	sealed atomic.Bool
}

// adaptiveSlot is one handle's epoch-participation record: active
// publishes the epoch a draw is in flight against (nil when idle).
//
//netvet:padalign 128
type adaptiveSlot struct {
	active atomic.Pointer[adaptiveEpoch]
	_      [120]byte
}

// AdaptiveCounter is a Fetch&Increment counter that switches between
// an atomic word, a counting-network counter, and a flat-combining
// counter at runtime, preserving the gap-free step property across
// switches: at quiescence the values handed to handles — including
// their prefetch buffers, see AdaptiveHandle.Unserved — are exactly
// 0..N-1, whether or not the governor is running.
type AdaptiveCounter struct {
	atomicEng    *AtomicCounter
	networkEng   *NetworkCounter
	combiningEng *CombiningCounter

	cur          atomic.Pointer[adaptiveEpoch]
	combineBlock atomic.Int32 // governed combining prefetch block

	switches atomic.Int64

	slots atomic.Pointer[[]*adaptiveSlot] // registered handles, copy-on-write
	regMu sync.Mutex                      // guards slot registration

	switchMu sync.Mutex // serializes switches; guards base
	base     int64      // values issued across completed epochs

	dirMu sync.Mutex // guards dir, the counter-level direct handle
	dir   *AdaptiveHandle

	govMu   sync.Mutex
	govStop chan struct{}
	govDone chan struct{}

	// watch is the observability hook, nil unless EnableObs was
	// called; the draw path writes only its sampled draw_ns to it.
	watch   *obs.AdaptiveObs
	combObs *obs.CombineObs
}

// NewAdaptiveCounter builds an adaptive counter over the given
// counting network (used by the network and combining engines),
// starting on the given engine. The governor is off until
// StartGovernor; until then the counter stays on its engine unless
// SwitchTo is called.
func NewAdaptiveCounter(net *network.Network, initial EngineKind) *AdaptiveCounter {
	if initial < 0 || initial >= numEngineKinds {
		panic(fmt.Sprintf("countnet/counter: unknown engine kind %d", initial))
	}
	c := &AdaptiveCounter{
		atomicEng:    NewAtomicCounter(),
		networkEng:   NewNetworkCounter(net, false),
		combiningEng: NewCombiningCounter(net),
	}
	c.combineBlock.Store(combineBlockStart)
	empty := []*adaptiveSlot{}
	c.slots.Store(&empty)
	// base is 0 and every engine is fresh, so the initial offset is 0.
	c.cur.Store(&adaptiveEpoch{kind: initial})
	c.dir = c.Handle(0).(*AdaptiveHandle)
	return c
}

// Width returns the width of the underlying network.
func (c *AdaptiveCounter) Width() int { return c.networkEng.Width() }

// Strategy returns the currently active engine.
func (c *AdaptiveCounter) Strategy() EngineKind { return c.cur.Load().kind }

// Switches returns the number of completed engine transitions.
func (c *AdaptiveCounter) Switches() int64 { return c.switches.Load() }

// CombineBlock returns the current governed combining prefetch block.
func (c *AdaptiveCounter) CombineBlock() int { return int(c.combineBlock.Load()) }

// LoadEstimate returns the governor's latest load estimate (mean
// draws in flight), 0 before the first tick or without obs.
func (c *AdaptiveCounter) LoadEstimate() float64 {
	if o := c.watch; o != nil {
		return float64(o.LoadMilli.Load()) / 1000
	}
	return 0
}

// EnableObs attaches observability under the given group name and
// registers it with r (obs.Default when nil). Idempotent; call before
// the counter sees concurrent traffic. The adaptive group carries the
// strategy gauges (active engine, switch count, last switch reason,
// load estimate, combining block) and the handles' sampled draw
// latencies, the governor's load signal; the network and combining
// engines are registered as sub-groups name.network and
// name.combining so their per-gate and per-pass signals stay readable.
func (c *AdaptiveCounter) EnableObs(name string, r *obs.Registry) *obs.AdaptiveObs {
	if c.watch == nil {
		w := obs.NewAdaptiveObs(name)
		w.OpsFn = c.totalOps
		w.StrategyFn = func(id int64) string { return EngineKind(id).String() }
		w.Strategy.Store(int64(c.cur.Load().kind))
		w.Block.Store(int64(c.combineBlock.Load()))
		c.watch = w
		c.networkEng.EnableObs(name+".network", r)
		c.combObs = c.combiningEng.EnableObs(name+".combining", r)
	}
	if r == nil {
		r = obs.Default
	}
	r.Register(name, c.watch)
	return c.watch
}

// totalOps sums the engines' own issued counts: every value drawn out
// of an engine (including values still buffered in a handle).
func (c *AdaptiveCounter) totalOps() int64 {
	return c.atomicEng.issued() + c.networkEng.issued() + c.combiningEng.issued()
}

// prefetch returns the refill size for the given engine.
func (c *AdaptiveCounter) prefetch(k EngineKind) int {
	switch k {
	case EngineAtomic:
		return atomicPrefetch
	case EngineNetwork:
		return networkPrefetch
	}
	return int(c.combineBlock.Load())
}

// engineIssued returns the given engine's issued-value count, exact
// while the engine is drained (no draw in flight).
func (c *AdaptiveCounter) engineIssued(k EngineKind) int64 {
	switch k {
	case EngineAtomic:
		return c.atomicEng.issued()
	case EngineNetwork:
		return c.networkEng.issued()
	default:
		return c.combiningEng.issued()
	}
}

// Next issues one value through a counter-level handle under a mutex.
// Prefer Handle in concurrent loops.
func (c *AdaptiveCounter) Next() int64 {
	c.dirMu.Lock()
	v := c.dir.Next()
	c.dirMu.Unlock()
	return v
}

// NextBlock fills dst with len(dst) fresh values through a counter-
// level handle under a mutex. Prefer Handle in concurrent loops.
func (c *AdaptiveCounter) NextBlock(dst []int64) {
	c.dirMu.Lock()
	c.dir.NextBlock(dst)
	c.dirMu.Unlock()
}

// Handle returns a goroutine-local view. Handles must not be shared
// between goroutines; each call permanently registers one epoch slot
// (and one combining slot), so create one handle per worker, not one
// per operation.
func (c *AdaptiveCounter) Handle(id int) Counter {
	s := &adaptiveSlot{}
	c.regMu.Lock()
	old := *c.slots.Load()
	next := make([]*adaptiveSlot, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	c.slots.Store(&next)
	c.regMu.Unlock()
	return &AdaptiveHandle{
		c:     c,
		slot:  s,
		netH:  c.networkEng.Handle(id).(*handle),
		combH: c.combiningEng.Handle(id).(*CombiningHandle),
	}
}

// AdaptiveHandle is a single-goroutine view of an AdaptiveCounter.
type AdaptiveHandle struct {
	c     *AdaptiveCounter
	slot  *adaptiveSlot
	netH  *handle
	combH *CombiningHandle
	pos   int
	n     int
	tick  int64 // obs-on draws so far, the sampling clock; untouched with obs off
	buf   [maxPrefetch]int64
}

// Next returns the next value, serving from the handle's prefetch
// buffer and refilling it from the active engine when empty.
//
//netvet:hotpath
func (h *AdaptiveHandle) Next() int64 { return h.next(nil, nil) }

// NextHooked is Next with schedule instrumentation: every shared step
// of the epoch protocol and of the engine yields first, and waits park
// in block instead of spinning. For package sched; do not mix with
// unhooked calls in a controlled run.
func (h *AdaptiveHandle) NextHooked(yield func(op string), block func(op string, ready func() bool)) int64 {
	return h.next(yield, block)
}

// next serves from the prefetch buffer, refilling it when empty.
//
//netvet:hotpath
func (h *AdaptiveHandle) next(yield func(op string), block func(op string, ready func() bool)) int64 {
	if h.n > 0 {
		v := h.buf[h.pos]
		h.pos++
		h.n--
		return v
	}
	return h.refill(yield, block)
}

// refill draws one prefetch block through the epoch protocol, serves
// the first value and buffers the rest.
//
//netvet:hotpath
func (h *AdaptiveHandle) refill(yield func(op string), block func(op string, ready func() bool)) int64 {
	e := h.enter(yield, block)
	buf := h.buf[:h.c.prefetch(e.kind)]
	h.draw(e, buf, yield, block)
	h.pos, h.n = 1, len(buf)-1
	return buf[0]
}

// NextBlock fills dst with len(dst) fresh values in one draw against
// the active engine (bypassing the prefetch buffer).
//
//netvet:hotpath
func (h *AdaptiveHandle) NextBlock(dst []int64) {
	if len(dst) == 0 {
		return
	}
	h.draw(h.enter(nil, nil), dst, nil, nil)
}

// DrawHooked is NextBlock for a non-empty dst with schedule
// instrumentation (see NextHooked). For package sched.
func (h *AdaptiveHandle) DrawHooked(dst []int64, yield func(op string), block func(op string, ready func() bool)) {
	h.draw(h.enter(yield, block), dst, yield, block)
}

// Unserved returns a copy of the values sitting in the prefetch buffer
// — drawn from an engine but not yet returned by Next. Gap-free
// oracles union these with the consumed values: at quiescence,
// consumed ∪ unserved over all handles is exactly 0..N-1.
func (h *AdaptiveHandle) Unserved() []int64 {
	return append([]int64(nil), h.buf[h.pos:h.pos+h.n]...)
}

// enter pins the current epoch for a draw: publish the epoch in the
// handle's slot, then re-check the seal. Both sides are seq-cst, and
// the switcher seals before scanning slots, so either we see the seal
// and retry, or the switcher sees our publish and waits for us to
// retire (Dekker handshake).
//
//netvet:hotpath
func (h *AdaptiveHandle) enter(yield func(op string), block func(op string, ready func() bool)) *adaptiveEpoch {
	s, c := h.slot, h.c
	for {
		hook(yield, "epoch load")
		e := c.cur.Load()
		hook(yield, "slot publish")
		s.active.Store(e)
		hook(yield, "seal check")
		if !e.sealed.Load() {
			return e
		}
		hook(yield, "slot clear")
		s.active.Store(nil)
		// Wait for the switch to install the next epoch.
		if block != nil {
			//netvet:allow hotpath escape -- sched-hooked lane only; production callers pass a nil block
			block("epoch turnover", func() bool { return c.cur.Load() != e })
			continue
		}
		//netvet:allow gosched
		runtime.Gosched()
	}
}

// draw runs a pinned draw. With observability on, the handle's own
// tick picks every obs.SampleEvery-th draw for timing into draw_ns,
// the governor's load signal: one increment and one mask test on
// goroutine-local state. The obs-off path never touches the tick.
//
//netvet:hotpath
func (h *AdaptiveHandle) draw(e *adaptiveEpoch, dst []int64, yield func(op string), block func(op string, ready func() bool)) {
	if o := h.c.watch; o != nil {
		h.tick++
		if obs.Sampled(h.tick) {
			start := obs.Now()
			h.drawOn(e, dst, yield, block)
			o.DrawNs.ObserveSince(start)
			return
		}
	}
	h.drawOn(e, dst, yield, block)
}

// drawOn runs the draw on the epoch's engine, retires the handle's
// slot, and offsets the engine values into the epoch.
//
//netvet:hotpath
func (h *AdaptiveHandle) drawOn(e *adaptiveEpoch, dst []int64, yield func(op string), block func(op string, ready func() bool)) {
	switch e.kind {
	case EngineAtomic:
		hook(yield, "atomic draw")
		h.c.atomicEng.NextBlock(dst)
	case EngineNetwork:
		h.netH.nextBlock(dst, yield)
	default:
		h.combH.await(dst, yield, block)
	}
	hook(yield, "slot clear")
	h.slot.active.Store(nil)
	off := e.offset
	for i := range dst {
		dst[i] += off
	}
}

// SwitchTo switches the active engine, preserving the gap-free step
// property via the seal → drain → fence → install sequence documented
// on the package. A switch to the already-active engine is a no-op.
// Safe to call concurrently with draws and other switches.
func (c *AdaptiveCounter) SwitchTo(kind EngineKind) { c.switchTo(kind, "manual", nil, nil) }

// SwitchToHooked is SwitchTo with schedule instrumentation (see
// NextHooked). For package sched.
func (c *AdaptiveCounter) SwitchToHooked(kind EngineKind, yield func(op string), block func(op string, ready func() bool)) {
	c.switchTo(kind, "hooked", yield, block)
}

// switchTo performs the epoch handoff. The step markers below are
// checked by netvet's epochorder analyzer: every path to a later step
// must pass through the earlier ones, so a reordering (or a branch
// that skips the drain) fails `make lint`. A non-nil yield runs before
// the lock attempt, the seal and the fence; a controlled task parks in
// block on the switch lock and on each draining slot.
//
//netvet:epochorder seal drain fence install
func (c *AdaptiveCounter) switchTo(kind EngineKind, reason string, yield func(op string), block func(op string, ready func() bool)) bool {
	if kind < 0 || kind >= numEngineKinds {
		panic(fmt.Sprintf("countnet/counter: unknown engine kind %d", kind))
	}
	c.lockSwitch(yield, block)
	defer c.switchMu.Unlock()
	e := c.cur.Load()
	if e.kind == kind {
		return false
	}
	hook(yield, "seal")
	//netvet:epoch seal
	e.sealed.Store(true)
	obs.RecordFlight(obs.FlightEpochSeal, int64(e.kind), int64(kind))
	// Drain: every handle mid-draw in e has published e in its slot
	// (publish precedes its seal check, seq-cst); wait until each has
	// retired. Handles that published after seeing the seal unpublish
	// and retry, so this terminates as soon as in-flight draws finish.
	//netvet:epoch drain
	for _, s := range *c.slots.Load() {
		if block != nil {
			block("drain slot", func() bool { return s.active.Load() != e })
		}
		for s.active.Load() == e {
			//netvet:allow gosched
			runtime.Gosched()
		}
	}
	obs.RecordFlight(obs.FlightEpochDrain, int64(e.kind), int64(len(*c.slots.Load())))
	//netvet:epoch fence install
	c.install(e, kind, reason, yield)
	return true
}

// lockSwitch takes switchMu. A controlled task (non-nil yield) only
// ever tries the lock, parking in block until a probe finds it free.
func (c *AdaptiveCounter) lockSwitch(yield func(op string), block func(op string, ready func() bool)) {
	if yield == nil {
		c.switchMu.Lock()
		return
	}
	yield("switch lock")
	for !c.switchMu.TryLock() {
		block("switch lock", func() bool { return unlocked(&c.switchMu) })
	}
}

// install reads the sealed epoch's fence, folds it into the base, and
// publishes the next epoch. Caller must hold switchMu and have sealed
// e and drained every slot. The fence read must precede the epoch
// publish — installing first would let new draws move the outgoing
// engine's issued count after the base was computed, minting
// duplicate values. A non-nil yield runs before the fence.
//
//netvet:epochorder fence install
func (c *AdaptiveCounter) install(e *adaptiveEpoch, kind EngineKind, reason string, yield func(op string)) {
	hook(yield, "install")
	//netvet:epoch fence
	c.base = e.offset + c.engineIssued(e.kind)
	obs.RecordFlight(obs.FlightEpochFence, int64(e.kind), c.base)
	//netvet:epoch install
	c.cur.Store(&adaptiveEpoch{kind: kind, offset: c.base - c.engineIssued(kind)})
	obs.RecordFlight(obs.FlightEpochInstall, int64(kind), c.base)
	obs.RecordFlight(obs.FlightStrategySwitch, int64(e.kind), int64(kind))
	c.switches.Add(1)
	if o := c.watch; o != nil {
		o.Switches.Inc()
		o.Strategy.Store(int64(kind))
		o.SetReason(reason)
	}
}

// StartGovernor starts the background strategy loop. Requires
// EnableObs (the governor both reads and publishes through obs).
// Idempotent while running; Close stops it.
func (c *AdaptiveCounter) StartGovernor() error {
	if c.watch == nil {
		return errors.New("countnet/counter: StartGovernor requires EnableObs")
	}
	c.govMu.Lock()
	defer c.govMu.Unlock()
	if c.govStop != nil {
		return nil
	}
	c.govStop = make(chan struct{})
	c.govDone = make(chan struct{})
	// The governor is infrastructure around the engines, not part of
	// any explored schedule; controlled runs never start it.
	//netvet:allow spawn
	go c.govern(c.govStop, c.govDone)
	return nil
}

// Close stops the governor, if running. The counter remains usable on
// its current engine.
func (c *AdaptiveCounter) Close() {
	c.govMu.Lock()
	stop, done := c.govStop, c.govDone
	c.govStop, c.govDone = nil, nil
	c.govMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// govState is the governor's between-tick memory: the clock and
// histogram totals at the previous tick, and the dwell streak.
type govState struct {
	lastT      int64
	lastBusy   int64 // DrawNs sum
	lastQueued int64 // PassQueue sum
	lastPasses int64 // PassQueue count
	streak     int
	want       EngineKind
}

func (c *AdaptiveCounter) govern(stop, done chan struct{}) {
	defer close(done)
	// Wall-clock pacing is inherently nondeterministic; the governor
	// loop never runs under the replay harness (GovernHooked drives
	// its decision step there).
	//netvet:allow nondeterminism
	tick := time.NewTicker(govInterval)
	defer tick.Stop()
	var g govState
	c.measure(&g) // the first tick then measures its own interval only
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			t := c.measure(&g)
			c.watch.LoadMilli.Store(int64(t.Load * 1000))
			c.decide(&g, t, nil, nil)
		}
	}
}

// GovernorTick is one governor interval's measurement, the input of
// the decision step.
type GovernorTick struct {
	Load      float64 // mean draws in flight
	Occupancy float64 // mean pending slots per combiner pass, 0 when none ran
}

// measure reads the clock and the histogram deltas since the previous
// tick. The load is Little's law over the handles' sampled draws:
// obs.SampleEvery × the time spent in sampled draws, over the elapsed
// time, is the mean number of draws in flight. Requires obs
// (StartGovernor checks).
func (c *AdaptiveCounter) measure(g *govState) GovernorTick {
	var t GovernorTick
	now := obs.Now()
	busy := c.watch.DrawNs.Snapshot().Sum
	if dt := now - g.lastT; dt > 0 {
		t.Load = float64(obs.SampleEvery*(busy-g.lastBusy)) / float64(dt)
	}
	g.lastT, g.lastBusy = now, busy
	q := c.combObs.PassQueue.Snapshot()
	if n := q.Count - g.lastPasses; n > 0 {
		t.Occupancy = float64(q.Sum-g.lastQueued) / float64(n)
	}
	g.lastQueued, g.lastPasses = q.Sum, q.Count
	return t
}

// GovernHooked runs the governor's decision step over the scripted
// ticks in order, from a fresh between-tick memory, with schedule
// instrumentation (see NextHooked): the task stands in for the
// governor loop with the script in place of its measurements. For
// package sched.
func (c *AdaptiveCounter) GovernHooked(ticks []GovernorTick, yield func(op string), block func(op string, ready func() bool)) {
	var g govState
	for _, t := range ticks {
		c.decide(&g, t, yield, block)
	}
}

// decide is the governor's decision step over one tick: retune the
// combining block while combining is active, band the load estimate,
// and switch engines once the same target has won dwellTicks
// consecutive ticks. A non-nil yield runs before its read of the
// active engine and before a block store; the switch is the shipped
// switchTo, with yield and block passed through.
func (c *AdaptiveCounter) decide(g *govState, t GovernorTick, yield func(op string), block func(op string, ready func() bool)) {
	hook(yield, "governor read")
	cur := c.cur.Load().kind
	if cur == EngineCombining {
		c.retuneBlock(t.Occupancy, yield)
	}
	want := chooseEngine(cur, t.Load)
	if want == cur {
		g.streak = 0
		return
	}
	if want != g.want {
		g.want, g.streak = want, 1
	} else {
		g.streak++
	}
	if g.streak >= dwellTicks {
		g.streak = 0
		c.switchTo(want, fmt.Sprintf("load %.2f -> %s", t.Load, want), yield, block)
	}
}

// retuneBlock retunes the combining prefetch block from the combiner's
// pass occupancy (mean pending slots per pass): sustained queueing
// means bigger blocks amortize better, single-requester passes mean
// the block can shrink. An occupancy of 0 (no pass) leaves it alone.
func (c *AdaptiveCounter) retuneBlock(occ float64, yield func(op string)) {
	if occ <= 0 {
		return
	}
	b := int(c.combineBlock.Load())
	switch {
	case occ >= growOccupancy && b*2 <= combineBlockMax:
		b *= 2
	case occ <= shrinkOccupancy && b/2 >= combineBlockMin:
		b /= 2
	default:
		return
	}
	hook(yield, "block retune")
	c.combineBlock.Store(int32(b))
	if o := c.watch; o != nil {
		o.Block.Store(int64(b))
	}
}

// chooseEngine maps a load estimate to the engine band, with
// hysteresis relative to the current engine: moving to a heavier
// engine requires clearing the target band's lower edge by (1+h),
// moving to a lighter one requires falling below its upper edge by
// (1-h).
func chooseEngine(cur EngineKind, load float64) EngineKind {
	edges := [...]float64{atomicMaxLoad, networkMaxLoad} // upper edge of every band but combining's
	target := EngineAtomic
	for int(target) < len(edges) && load > edges[target] {
		target++
	}
	if target > cur && load <= edges[target-1]*(1+hysteresis) ||
		target < cur && load >= edges[target]*(1-hysteresis) {
		return cur
	}
	return target
}
