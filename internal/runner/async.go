package runner

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
)

// Async is a compiled form of a balancing network for real concurrent
// execution: many goroutines shepherd tokens through the network at
// once, contending on per-balancer state exactly as the distributed
// data structure of the paper intends.
//
// Two balancer implementations are provided. The atomic implementation
// realizes a p-balancer as a single fetch-and-add counter: the i-th
// arriving token leaves on port i mod p, which is precisely the
// balancer specification. The mutex implementation guards a plain
// counter with a sync.Mutex; it exists to measure how lock-based
// balancers behave under contention (the regime studied by the
// shared-memory counting network literature the paper cites).
type Async struct {
	width     int
	entry     []int32 // first gate per wire, -1 if none
	hot       []asyncHot
	gates     []asyncGate
	outPos    []int32 // wire -> position in the output order
	gateLayer []int32 // gate -> 1-based layer, for observability

	// watch is the observability hook, nil unless EnableObs was
	// called. Per-gate token counts are the balancers' own hot[g].count,
	// so no walk records anything per token and none reads the clock;
	// only the lock walk reads watch, to count contended acquisitions.
	watch *obs.NetObs
}

// asyncHot is a gate's contended state, isolated from everything else:
// the count (fetch-and-add in lock-free mode, load/store under mu in
// lock mode) and the mutex sit at the front of a 128-byte element, so
// in the hot slice no two gates' counters ever share a 64-byte cache
// line — regardless of the slice's base alignment — and a gate's
// read-only routing data (asyncGate) is never invalidated by counter
// traffic. The previous layout padded only *before* the counter inside
// a 144-byte struct, leaving each gate's counter on the same line as
// its routing slice headers. 128 rather than 64 also defeats
// adjacent-line prefetching between neighbouring counters.
//
//netvet:padalign 128
type asyncHot struct {
	count atomic.Int64 // tokens that have arrived at the gate
	mu    sync.Mutex
	_     [128 - 16]byte
}

// asyncGate is the gate's immutable routing data, packed separately
// from the contended counters so concurrent readers share these lines
// cleanly.
type asyncGate struct {
	width int64
	mask  int64 // width-1 if width is a power of two, else -1
	shift uint8 // log2(width) when mask >= 0
	wires []int32
	next  []int32 // next gate per port, -1 if the token exits
}

// Compile prepares a network for concurrent traversal in one pass over
// the gates in topological order, with no per-gate allocation: every
// gate's wires and next-gate lists are adjacent windows of one shared
// routing array (a gate's whole routing shares a cache line or two, as
// it did when each list was an allocation of its own), and a per-wire
// "last port" slot gives each wire's entry gate and links each port to
// the next gate on its wire. A compile costs four allocations at any
// size.
func Compile(net *network.Network) *Async {
	w, ng := net.Width(), net.Size()
	ports := 0
	for gi := range net.Gates {
		ports += len(net.Gates[gi].Wires)
	}
	tab := make([]int32, 2*w+ng+2*ports)
	a := &Async{
		width:     w,
		entry:     tab[:w:w],
		outPos:    tab[w : 2*w : 2*w],
		gateLayer: tab[2*w : 2*w+ng : 2*w+ng],
		hot:       make([]asyncHot, ng),
		gates:     make([]asyncGate, ng),
	}
	route := tab[2*w+ng:]
	// last[wire] indexes the next-gate slot of the port that last
	// touched wire, -1 before its first gate. outPos is free until the
	// end, so it serves.
	last := a.outPos
	for wire := range last {
		a.entry[wire] = -1
		last[wire] = -1
	}
	k := 0
	for gi := range net.Gates {
		g := &net.Gates[gi]
		a.gateLayer[gi] = int32(g.Layer)
		ag := &a.gates[gi]
		ag.width = int64(g.Width())
		ag.mask = -1
		if w := ag.width; w&(w-1) == 0 {
			ag.mask = w - 1
			for 1<<ag.shift < w {
				ag.shift++
			}
		}
		p := len(g.Wires)
		ag.wires = route[k : k+p : k+p]
		ag.next = route[k+p : k+2*p : k+2*p]
		for port, wire := range g.Wires {
			ag.wires[port] = int32(wire)
			ag.next[port] = -1
			if l := last[wire]; l >= 0 {
				route[l] = int32(gi)
			} else {
				a.entry[wire] = int32(gi)
			}
			last[wire] = int32(k + p + port)
		}
		k += 2 * p
	}
	for pos, wire := range net.OutputOrder {
		a.outPos[wire] = int32(pos)
	}
	return a
}

// Width returns the network width.
func (a *Async) Width() int { return a.width }

// EnableObs attaches observability state under the given group name
// and returns it; subsequent calls return the existing state. Call
// before the network sees concurrent traffic — the hook is installed
// with a plain store. Snapshots read each gate's token count straight
// from its balancer (so they include traffic from before the call, and
// Reset clears them), and the lock walk counts acquisitions that found
// their gate held. No walk reads the clock: latency belongs to an
// owner that samples it (a network counter times one value in
// obs.SampleEvery), so a bare network exports counts only.
func (a *Async) EnableObs(name string) *obs.NetObs {
	if a.watch == nil {
		a.watch = obs.NewNetObs(name, a.gateLayer, func(g int) int64 { return a.hot[g].count.Load() })
	}
	return a.watch
}

// Traverse pushes one token into the network on the given entry wire
// using atomic fetch-and-add balancers, and returns the output-order
// position on which the token exits. Safe for concurrent use.
//
//netvet:hotpath
func (a *Async) Traverse(entryWire int) int { return a.walk(entryWire, nil) }

// TraverseHooked is Traverse instrumented for controlled scheduling:
// yield is called immediately before every atomic balancer access, so
// a scheduler that serializes its tasks (package sched) fully
// determines the interleaving of balancer operations. It runs the same
// walk as Traverse, which reads no clock, so an observed controlled
// run stays deterministic under replay. It shares the atomic balancer
// state with Traverse; do not mix hooked and unhooked traversals
// within one controlled run.
func (a *Async) TraverseHooked(entryWire int, yield func(op string)) int {
	return a.walk(entryWire, yield)
}

// walk is the atomic traversal: one fetch-and-add per gate on the
// token's path. A non-nil yield runs before each of them.
//
//netvet:hotpath
func (a *Async) walk(entryWire int, yield func(op string)) int {
	if entryWire < 0 || entryWire >= a.width {
		panic(fmt.Sprintf("runner: entry wire %d outside width %d", entryWire, a.width))
	}
	wire := int32(entryWire)
	gid := a.entry[wire]
	for gid >= 0 {
		g := &a.gates[gid]
		if yield != nil {
			//netvet:allow hotpath escape -- sched-hooked lane only; production callers pass a nil yield
			yield(fmt.Sprintf("gate %d", gid))
		}
		i := a.hot[gid].count.Add(1) - 1
		// Same pow2 fast path as the batch engine (batch.go): the AND
		// replaces a 64-bit DIV on the single hottest instruction of
		// the traversal loop. Counters are non-negative, so mask and
		// modulo agree; TestTraverseMaskVsModulo pins the equality.
		var port int64
		if m := g.mask; m >= 0 {
			port = i & m
		} else {
			port = i % g.width
		}
		wire = g.wires[port]
		gid = g.next[port]
	}
	return int(a.outPos[wire])
}

// TraverseMutex is Traverse with lock-based balancers. The two modes
// keep their counts in the same per-gate word by different protocols
// (fetch-and-add versus load/store under the gate's lock); do not mix
// them on one Async instance within a run. The lock path keeps the
// plain modulo port computation: it is a measurement baseline, not a
// hot path in the micro-architectural sense (the independent
// arithmetic makes it an oracle for the mask fast path in the atomic
// traversal), but it still must not allocate per token, so it carries
// the same proof annotation. With observability on, a TryLock that
// fails means the token found the balancer held, counted per gate
// before falling back to the blocking Lock.
//
// Lock mode keeps its own walk on purpose. Folding it into walk, as a
// flag on Async that locks and unlocks around the same fetch-and-add,
// costs the atomic walk two flag tests per gate on its hottest loop:
// BenchmarkTraverse read L(4,4) 51.6–54.0 → 56.6–58.2 ns and
// L(2,2,2,2) 115.4–118.3 → 128.2–129.7 ns over three interleaved runs
// on a 2-vCPU AMD EPYC (Go 1.24).
//
//netvet:hotpath
func (a *Async) TraverseMutex(entryWire int) int {
	o := a.watch
	if entryWire < 0 || entryWire >= a.width {
		panic(fmt.Sprintf("runner: entry wire %d outside width %d", entryWire, a.width))
	}
	wire := int32(entryWire)
	gid := a.entry[wire]
	for gid >= 0 {
		g := &a.gates[gid]
		h := &a.hot[gid]
		if o == nil {
			h.mu.Lock()
		} else if !h.mu.TryLock() {
			o.GateContended(gid)
			h.mu.Lock()
		}
		// Atomic load/store under the lock, so a concurrent snapshot
		// can read the count without a race.
		i := h.count.Load()
		h.count.Store(i + 1)
		h.mu.Unlock()
		port := i % g.width
		wire = g.wires[port]
		gid = g.next[port]
	}
	return int(a.outPos[wire])
}

// Reset clears all balancer state (both modes), returning the network
// to its initial quiescent configuration.
func (a *Async) Reset() {
	for i := range a.hot {
		a.hot[i].count.Store(0)
	}
}

// ExitCounts runs tokensPerWire tokens on every input wire from
// workers concurrent goroutines using atomic balancers, waits for
// quiescence, and returns the per-position exit counts in output order.
// It is the concurrent analogue of ApplyTokens on a uniform input and
// is used by tests to check the step property under real interleaving.
func (a *Async) ExitCounts(tokensPerWire int, workers int) []int64 {
	if workers < 1 {
		workers = 1
	}
	total := tokensPerWire * a.width
	var next atomic.Int64
	counts := make([]atomic.Int64, a.width)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Production-only worker pool; controlled runs drive tokens as
		// harness tasks through TraverseHooked instead.
		//netvet:allow spawn
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(total) {
					return
				}
				pos := a.Traverse(int(k) % a.width)
				counts[pos].Add(1)
			}
		}()
	}
	wg.Wait()
	out := make([]int64, a.width)
	for i := range counts {
		out[i] = counts[i].Load()
	}
	return out
}
