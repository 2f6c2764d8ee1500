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
// StartGovernor runs a background loop that estimates the offered
// load from two self-measured signals: the aggregate draw rate (per-
// handle slot counters, owner-written, no shared RMW) and the current
// per-value latency (timed probe draws through the governor's own
// handle). Their product is, by Little's law, the mean number of
// concurrent requesters inside the counter — the x-axis of the
// BENCH_counter crossover plot. The estimate picks the engine band
// (with hysteresis and a dwell requirement so jitter cannot thrash),
// and while combining is active the prefetch block grows or shrinks
// with the observed combiner pass occupancy.

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

// AdaptivePolicy tunes the governor. The zero value is not valid; use
// DefaultAdaptivePolicy (whose thresholds are calibrated against the
// committed BENCH_counter.json crossovers) and override fields.
type AdaptivePolicy struct {
	// Interval between governor ticks.
	Interval time.Duration
	// AtomicMaxLoad and NetworkMaxLoad band the load estimate
	// (mean concurrent requesters): at or below AtomicMaxLoad the
	// atomic engine wins, above NetworkMaxLoad combining wins, the
	// network counter takes the band between.
	AtomicMaxLoad  float64
	NetworkMaxLoad float64
	// Hysteresis is the fractional margin the estimate must clear
	// beyond a band edge before a switch is considered.
	Hysteresis float64
	// DwellTicks is how many consecutive ticks must agree on the
	// same target engine before switching.
	DwellTicks int
	// ProbeDraws is the number of timed probe blocks per tick.
	ProbeDraws int
	// Prefetch is the per-engine refill size for handle Next; the
	// combining entry is the starting block, governed live between
	// CombineBlockMin and CombineBlockMax afterwards.
	Prefetch [numEngineKinds]int
	// CombineBlockMin/Max bound the governed combining block.
	CombineBlockMin int
	CombineBlockMax int
	// GrowOccupancy / ShrinkOccupancy are mean-pending-slots-per-
	// combiner-pass thresholds: above the first the block doubles,
	// below the second it halves.
	GrowOccupancy   float64
	ShrinkOccupancy float64
}

// DefaultAdaptivePolicy returns the policy tuned on the committed
// benchmark data (BENCH_counter.json crossovers, BENCH_adaptive.json
// sweep: the atomic prefetch of 32 keeps the per-value lane inside
// 15% of the best block lane across the whole g sweep).
func DefaultAdaptivePolicy() AdaptivePolicy {
	return AdaptivePolicy{
		Interval:        2 * time.Millisecond,
		AtomicMaxLoad:   2.0,
		NetworkMaxLoad:  6.0,
		Hysteresis:      0.3,
		DwellTicks:      2,
		ProbeDraws:      4,
		Prefetch:        [numEngineKinds]int{32, 8, 16},
		CombineBlockMin: 8,
		CombineBlockMax: maxPrefetch,
		GrowOccupancy:   1.5,
		ShrinkOccupancy: 0.75,
	}
}

// adaptiveEpoch routes draws to one engine with one value offset. A
// fresh epoch is allocated per switch, so pointer identity
// distinguishes generations.
type adaptiveEpoch struct {
	offset int64
	kind   EngineKind
	sealed atomic.Bool
}

// adaptiveSlot is one handle's epoch-participation record: active
// publishes the epoch a draw is in flight against (nil when idle), ops
// counts values drawn through the handle (the governor's rate signal,
// owner-written so it never bounces between cores).
//
//netvet:padalign 128
type adaptiveSlot struct {
	active atomic.Pointer[adaptiveEpoch]
	ops    atomic.Int64
	_      [112]byte
}

// AdaptiveCounter is a Fetch&Increment counter that switches between
// an atomic word, a counting-network counter, and a flat-combining
// counter at runtime, preserving the gap-free step property across
// switches: values are distinct always, and while the governor is
// stopped the values handed to handles — including their prefetch
// buffers, see AdaptiveHandle.Unserved — are exactly 0..N-1 at
// quiescence. The governor's probe draws take values no caller
// receives, so while it runs the issued range has gaps.
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

	pol AdaptivePolicy

	dirMu sync.Mutex // guards dir, the counter-level direct handle
	dir   *AdaptiveHandle

	govMu     sync.Mutex
	govStop   chan struct{}
	govDone   chan struct{}
	govHandle *AdaptiveHandle

	// watch is the observability hook, nil unless EnableObs was
	// called; the draw path itself never writes to it.
	watch   *obs.AdaptiveObs
	combObs *obs.CombineObs
}

// NewAdaptiveCounter builds an adaptive counter over the given
// counting network (used by the network and combining engines),
// starting on the given engine. A nil policy uses
// DefaultAdaptivePolicy. The governor is off until StartGovernor;
// until then the counter stays on its engine unless SwitchTo is
// called.
func NewAdaptiveCounter(net *network.Network, initial EngineKind, pol *AdaptivePolicy) *AdaptiveCounter {
	if initial < 0 || initial >= numEngineKinds {
		panic(fmt.Sprintf("countnet/counter: unknown engine kind %d", initial))
	}
	p := DefaultAdaptivePolicy()
	if pol != nil {
		p = *pol
	}
	if p.CombineBlockMax > maxPrefetch {
		p.CombineBlockMax = maxPrefetch
	}
	for k := range p.Prefetch {
		if p.Prefetch[k] < 1 {
			p.Prefetch[k] = 1
		}
		if p.Prefetch[k] > maxPrefetch {
			p.Prefetch[k] = maxPrefetch
		}
	}
	c := &AdaptiveCounter{
		atomicEng:    NewAtomicCounter(),
		networkEng:   NewNetworkCounter(net, false),
		combiningEng: NewCombiningCounter(net),
		pol:          p,
	}
	c.combineBlock.Store(int32(p.Prefetch[EngineCombining]))
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
// concurrent requesters), 0 before the first tick or without obs.
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
// load estimate, combining block) and the governor's probe latencies;
// the network and combining engines are registered as sub-groups
// name.network and name.combining so their per-gate and per-pass
// signals stay readable.
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

// totalOps sums the per-handle slot counters: every value drawn out of
// an engine (including values still buffered in a handle).
func (c *AdaptiveCounter) totalOps() int64 {
	var n int64
	for _, s := range *c.slots.Load() {
		n += s.ops.Load()
	}
	return n
}

// prefetch returns the refill size for the given engine.
func (c *AdaptiveCounter) prefetch(k EngineKind) int {
	if k == EngineCombining {
		return int(c.combineBlock.Load())
	}
	return c.pol.Prefetch[k]
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

// draw runs a pinned draw on the epoch's engine, retires the handle's
// slot, and offsets the engine values into the epoch.
//
//netvet:hotpath
func (h *AdaptiveHandle) draw(e *adaptiveEpoch, dst []int64, yield func(op string), block func(op string, ready func() bool)) {
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
	h.slot.ops.Add(int64(len(dst)))
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

// --- governor ---

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
	if c.govHandle == nil {
		c.govHandle = c.Handle(1).(*AdaptiveHandle)
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

// govState is the governor's between-tick memory.
type govState struct {
	lastT          int64
	lastOps        int64
	lastQueueSum   int64
	lastQueueCount int64
	streak         int
	want           EngineKind
	probe          [maxPrefetch]int64
}

func (c *AdaptiveCounter) govern(stop, done chan struct{}) {
	defer close(done)
	// Wall-clock pacing is inherently nondeterministic; the governor
	// never runs under the replay harness.
	//netvet:allow nondeterminism
	tick := time.NewTicker(c.pol.Interval)
	defer tick.Stop()
	var g govState
	g.lastT = obs.Now()
	g.lastOps = c.totalOps()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			c.govTick(&g)
		}
	}
}

// govTick runs one governor step: estimate the load, retune the
// combining block, and switch engines when the estimate has cleared a
// band edge (plus hysteresis) for DwellTicks consecutive ticks.
// Exported to tests via export_test.go.
func (c *AdaptiveCounter) govTick(g *govState) {
	now := obs.Now()
	ops := c.totalOps()
	dt := now - g.lastT
	dOps := ops - g.lastOps
	g.lastT, g.lastOps = now, ops
	if dt <= 0 {
		return
	}
	e := c.cur.Load()
	// Timed probe draws measure the current per-value latency. The
	// probes are real draws (they count as issued values); the rate
	// signal above already includes previous ticks' probes.
	b := c.prefetch(e.kind)
	n := c.pol.ProbeDraws
	if n < 1 {
		n = 1
	}
	t0 := obs.Now()
	for i := 0; i < n; i++ {
		c.govHandle.NextBlock(g.probe[:b])
	}
	perVal := float64(obs.Now()-t0) / float64(n*b)
	c.watch.ProbeNs.Observe(int64(perVal))
	// Little's law: rate × per-value time = mean concurrent
	// requesters inside the counter.
	load := float64(dOps) / float64(dt) * perVal
	c.watch.LoadMilli.Store(int64(load * 1000))

	if e.kind == EngineCombining {
		c.govBlock(g)
	}

	want := chooseEngine(e.kind, load, &c.pol)
	if want == e.kind {
		g.streak = 0
		return
	}
	if want != g.want {
		g.want, g.streak = want, 1
	} else {
		g.streak++
	}
	if g.streak >= c.pol.DwellTicks {
		g.streak = 0
		c.switchTo(want, fmt.Sprintf("load %.2f -> %s", load, want), nil, nil)
	}
}

// govBlock retunes the combining prefetch block from the combiner's
// observed pass occupancy (mean pending slots per pass since the last
// tick): sustained queueing means bigger blocks amortize better,
// single-requester passes mean the block can shrink.
func (c *AdaptiveCounter) govBlock(g *govState) {
	o := c.combObs
	if o == nil {
		return
	}
	s := o.PassQueue.Snapshot()
	dSum, dCount := s.Sum-g.lastQueueSum, s.Count-g.lastQueueCount
	g.lastQueueSum, g.lastQueueCount = s.Sum, s.Count
	if dCount <= 0 {
		return
	}
	occ := float64(dSum) / float64(dCount)
	b := int(c.combineBlock.Load())
	switch {
	case occ >= c.pol.GrowOccupancy && b*2 <= c.pol.CombineBlockMax:
		b *= 2
	case occ <= c.pol.ShrinkOccupancy && b/2 >= c.pol.CombineBlockMin:
		b /= 2
	default:
		return
	}
	c.combineBlock.Store(int32(b))
	c.watch.Block.Store(int64(b))
}

// chooseEngine maps a load estimate to the engine band, with
// hysteresis relative to the current engine: crossing into a heavier
// engine requires clearing the band edge by (1+h), dropping to a
// lighter one requires falling below it by (1-h).
func chooseEngine(cur EngineKind, load float64, pol *AdaptivePolicy) EngineKind {
	target := EngineAtomic
	switch {
	case load > pol.NetworkMaxLoad:
		target = EngineCombining
	case load > pol.AtomicMaxLoad:
		target = EngineNetwork
	}
	if target == cur {
		return cur
	}
	h := pol.Hysteresis
	if target > cur {
		// The edge crossed into the target band is the higher of the
		// two when jumping straight from atomic to combining.
		edge := pol.AtomicMaxLoad
		if target == EngineCombining {
			edge = pol.NetworkMaxLoad
		}
		if load <= edge*(1+h) {
			return cur
		}
	} else {
		edge := pol.NetworkMaxLoad
		if target == EngineAtomic {
			edge = pol.AtomicMaxLoad
		}
		if load >= edge*(1-h) {
			return cur
		}
	}
	return target
}
