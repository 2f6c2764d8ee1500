// Package counter implements concurrent Fetch&Increment counters, the
// application domain of counting networks: a width-w counting network
// with a local counter on each output wire yields a low-contention
// shared counter. A token traverses the network, exits on output
// position i having previously seen k tokens exit there, and is
// assigned the value k*w + i; in any quiescent state the issued values
// are exactly 0..N-1.
//
// The package also provides centralized baselines (a single atomic
// fetch-and-add and a mutex-protected counter) used by the E9
// experiment to reproduce the shape of the shared-memory measurements
// of Felten, LaMarca & Ladner, which the paper cites as evidence that
// intermediate balancer widths perform best.
package counter

// The concurrent paths in this package are explored by the
// internal/sched harness; executions must replay deterministically
// from a recorded schedule (see docs/TESTING.md).
//
//netvet:sched-instrumented

import (
	"fmt"
	"sync"
	"sync/atomic"

	"countnet/internal/network"
	"countnet/internal/obs"
	"countnet/internal/runner"
)

// Counter issues distinct non-negative values. Implementations are safe
// for concurrent use; NetworkCounter additionally guarantees that after
// the network quiesces the issued values are gap-free.
type Counter interface {
	// Next returns the next value.
	Next() int64
}

// Handled is implemented by counters that benefit from per-goroutine
// handles (to avoid a shared entry-dispatch hotspot). Generic code can
// fall back to the counter itself, which must also implement Counter.
type Handled interface {
	Counter
	// Handle returns a Counter view for a single goroutine. Handles
	// must not be shared between goroutines.
	Handle(id int) Counter
}

// BlockCounter is implemented by counters that can issue a block of
// values in one call, cheaper than len(dst) separate Nexts. The values
// are distinct and all consumed by the caller on return, so block
// requests preserve the gap-free-at-quiescence guarantee; they are not
// necessarily consecutive integers (a network counter hands out one Run
// per exit wire it touched, so a block is the concatenation of up to
// width runs).
type BlockCounter interface {
	Counter
	// NextBlock fills dst with len(dst) fresh values.
	NextBlock(dst []int64)
}

// Run is the share of a combined pass that left on one exit wire: the
// N values Start, Start+w, …, Start+(N-1)·w, where the stride w is the
// width of the counter that minted it. By the step property, exit wire
// i of a width-w counting network issues exactly the values ≡ i mod w,
// so a combined pass of any size mints at most w runs.
type Run struct{ Start, N int64 }

// AppendValues appends the run's values, stride apart, to dst.
func (r Run) AppendValues(dst []int64, stride int64) []int64 {
	v := r.Start
	for m := int64(0); m < r.N; m++ {
		dst = append(dst, v)
		v += stride
	}
	return dst
}

// padded spaces local counters a full cache line apart: the 64 bytes
// of leading padding keep consecutive slice elements' counters on
// distinct lines regardless of the slice's base alignment.
//
//netvet:padalign 72
type padded struct {
	_ [64]byte
	v atomic.Int64
}

// NetworkCounter is a Fetch&Increment counter built on a counting
// network.
type NetworkCounter struct {
	async   *runner.Async
	width   int
	width64 int64 // int64(width), cached off the per-value paths
	useMu   bool
	entry   atomic.Int64
	locals  []padded

	// watch is the observability hook, nil unless EnableObs was
	// called; the value paths pay one nil-check when disabled.
	watch *obs.CounterObs
}

// NewNetworkCounter builds a counter over the given counting network.
// If mutexBalancers is true, tokens traverse lock-based balancers
// instead of fetch-and-add balancers.
func NewNetworkCounter(net *network.Network, mutexBalancers bool) *NetworkCounter {
	return &NetworkCounter{
		async:   runner.Compile(net),
		width:   net.Width(),
		width64: int64(net.Width()),
		useMu:   mutexBalancers,
		locals:  make([]padded, net.Width()),
	}
}

// Width returns the width of the underlying network.
func (c *NetworkCounter) Width() int { return c.width }

// EnableObs attaches observability under the given group name and
// registers it with r (obs.Default when nil). Idempotent; call before
// the counter sees concurrent traffic. When enabled, one issued value
// in obs.SampleEvery records a Next-latency and a traversal-latency
// sample from one start, chosen by the handle's own draw count (or,
// for Next, the shared dispatch sequence number); the rest run the
// obs-off step and read no clock. The "ops" count and the per-gate
// token counts are exact: they are read from the counter's and the
// network's own state, so they include traffic from before the call.
func (c *NetworkCounter) EnableObs(name string, r *obs.Registry) *obs.CounterObs {
	if c.watch == nil {
		c.watch = obs.NewCounterObs(name, c.async.EnableObs(name), c.issued)
	}
	if r == nil {
		r = obs.Default
	}
	r.Register(name, c.watch)
	return c.watch
}

// Next issues a value, dispatching the entry wire from a shared
// round-robin counter. This is the slow path: every call pays a
// fetch-and-add and a modulo on one shared dispatch word before the
// token even enters the network. Handle is the fast path — it cycles
// entry wires privately, touching no shared state outside the network
// itself (pinned by TestHandleBypassesSharedDispatch).
//
// With observability on, the dispatch sequence number the
// fetch-and-add returns picks the values to time.
//
//netvet:hotpath
func (c *NetworkCounter) Next() int64 {
	wire, seq := c.dispatch()
	if o := c.watch; o != nil && obs.Sampled(seq) {
		return c.timed(o, wire)
	}
	return c.step(wire, nil)
}

// dispatch takes the next entry wire from the shared round-robin word,
// with the 1-based dispatch sequence number it was taken at.
//
//netvet:hotpath
func (c *NetworkCounter) dispatch() (wire int, seq int64) {
	seq = c.entry.Add(1)
	return int((seq - 1) % c.width64), seq
}

// NextBlock fills dst with len(dst) values via the shared dispatcher.
//
//netvet:hotpath
func (c *NetworkCounter) NextBlock(dst []int64) {
	for i := range dst {
		dst[i] = c.Next()
	}
}

// timed is the sampled obs-on draw: the step with three clock reads,
// so next_ns and traverse_ns time the same value from one start. Every
// other draw, obs on or off, runs step and reads no clock.
//
//netvet:hotpath
func (c *NetworkCounter) timed(o *obs.CounterObs, wire int) int64 {
	start := obs.Now()
	pos := c.walk(wire, nil)
	walked := obs.Now()
	v := c.exit(pos)
	o.TraverseNs.Observe(walked - start)
	o.NextNs.ObserveSince(start)
	return v
}

// NextOnHooked issues a value entering on the given wire with schedule
// instrumentation: yield runs immediately before every atomic step (each
// balancer access and the local-counter fetch). Hooked traversal always
// uses the atomic balancers and never reads the clock. For package
// sched; do not mix with unhooked calls within one controlled run.
func (c *NetworkCounter) NextOnHooked(wire int, yield func(op string)) int64 {
	return c.step(wire, yield)
}

// step is the per-value body shared by every unsampled draw path: one
// token through the network, then one fetch-and-add on the exit wire's
// local counter. A non-nil yield selects the hooked atomic walk and
// runs before the local fetch too.
//
//netvet:hotpath
func (c *NetworkCounter) step(wire int, yield func(op string)) int64 {
	pos := c.walk(wire, yield)
	if yield != nil {
		//netvet:allow hotpath escape -- sched-hooked lane only; production callers pass a nil yield
		yield(fmt.Sprintf("local %d", pos))
	}
	return c.exit(pos)
}

// walk is the counter's one balancer-mode switch: the hooked atomic
// walk under a non-nil yield, else the lock or the atomic walk. With
// observability on, the lock walk counts contended acquisitions.
//
//netvet:hotpath
func (c *NetworkCounter) walk(wire int, yield func(op string)) int {
	switch {
	case yield != nil:
		return c.async.TraverseHooked(wire, yield)
	case c.useMu:
		return c.async.TraverseMutex(wire)
	default:
		return c.async.Traverse(wire)
	}
}

// exit takes the token's value from the local counter of the output
// position it left on.
//
//netvet:hotpath
func (c *NetworkCounter) exit(pos int) int64 {
	k := c.locals[pos].v.Add(1) - 1
	return k*c.width64 + int64(pos)
}

// hook runs a non-nil yield before the shared step op; production
// callers pass nil and pay one predictable branch.
//
//netvet:hotpath
func hook(yield func(op string), op string) {
	if yield != nil {
		yield(op)
	}
}

// NextHooked is Next with schedule instrumentation (see NextOnHooked);
// the shared entry-dispatch fetch-and-add is itself a yield point.
func (c *NetworkCounter) NextHooked(yield func(op string)) int64 {
	yield("entry dispatch")
	wire, _ := c.dispatch()
	return c.step(wire, yield)
}

// Handle returns a goroutine-local view whose entry wires cycle
// privately, starting at an offset derived from id. The counting
// property holds for any distribution of tokens over input wires, so
// private cycling is safe.
func (c *NetworkCounter) Handle(id int) Counter {
	pos := id % c.width
	if pos < 0 {
		pos += c.width
	}
	return &handle{c: c, pos: pos}
}

type handle struct {
	c    *NetworkCounter
	pos  int
	tick int64 // obs-on draws so far, the sampling clock; untouched with obs off
}

// Next draws one value. With observability on, the handle's own tick
// picks every obs.SampleEvery-th draw for timing: one increment and
// one mask test on goroutine-local state, no shared write. The obs-off
// path never touches the tick.
//
//netvet:hotpath
func (h *handle) Next() int64 {
	if o := h.c.watch; o != nil {
		h.tick++
		if obs.Sampled(h.tick) {
			return h.c.timed(o, h.advance())
		}
	}
	return h.c.step(h.advance(), nil)
}

// NextBlock fills dst with len(dst) values, one token each.
//
//netvet:hotpath
func (h *handle) NextBlock(dst []int64) {
	for i := range dst {
		dst[i] = h.Next()
	}
}

// advance returns the handle's next entry wire and moves its private
// cursor round-robin; it needs no yield, the cursor being
// goroutine-local.
//
//netvet:hotpath
func (h *handle) advance() int {
	wire := h.pos
	h.pos++
	if h.pos == h.c.width {
		h.pos = 0
	}
	return wire
}

// issued returns the number of values this counter has handed out,
// exact once no Next/NextBlock is in flight; obs reads it as ops.
func (c *NetworkCounter) issued() int64 {
	var n int64
	for i := range c.locals {
		n += c.locals[i].v.Load()
	}
	return n
}

// AtomicCounter is the centralized baseline: one fetch-and-add word.
type AtomicCounter struct {
	_ [64]byte
	v atomic.Int64
}

// NewAtomicCounter returns a zeroed atomic counter.
func NewAtomicCounter() *AtomicCounter { return &AtomicCounter{} }

// Next returns the next value.
//
//netvet:hotpath
func (c *AtomicCounter) Next() int64 { return c.v.Add(1) - 1 }

// NextBlock claims len(dst) consecutive values with one fetch-and-add.
//
//netvet:hotpath
func (c *AtomicCounter) NextBlock(dst []int64) {
	k := int64(len(dst))
	base := c.v.Add(k) - k
	for i := range dst {
		dst[i] = base + int64(i)
	}
}

// issued returns the number of values handed out (see
// NetworkCounter.issued): the word itself.
func (c *AtomicCounter) issued() int64 { return c.v.Load() }

// MutexCounter is the lock-based centralized baseline.
type MutexCounter struct {
	mu sync.Mutex
	v  int64
}

// NewMutexCounter returns a zeroed mutex counter.
func NewMutexCounter() *MutexCounter { return &MutexCounter{} }

// Next returns the next value.
//
//netvet:hotpath
func (c *MutexCounter) Next() int64 {
	c.mu.Lock()
	v := c.v
	c.v++
	c.mu.Unlock()
	return v
}

// NextBlock claims len(dst) consecutive values under one lock hold.
//
//netvet:hotpath
func (c *MutexCounter) NextBlock(dst []int64) {
	c.mu.Lock()
	base := c.v
	c.v += int64(len(dst))
	c.mu.Unlock()
	for i := range dst {
		dst[i] = base + int64(i)
	}
}
