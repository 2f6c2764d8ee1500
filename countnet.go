// Package countnet is a production-grade implementation of the sorting
// and counting networks of Busch & Herlihy, "Sorting and Counting
// Networks of Small Depth and Arbitrary Width" (SPAA 1999).
//
// For any width w = p0 * p1 * ... * pn-1 (factors >= 2, not necessarily
// prime) the package builds:
//
//   - family K: depth exactly 1.5n^2 - 3.5n + 2, balancers (or
//     comparators) of width at most max(pi*pj);
//   - family L: depth at most 9.5n^2 - 12.5n + 3, balancers of width at
//     most max(pi);
//   - R(p,q): a constant-depth (<= 16) counting network of width p*q
//     from balancers of width at most max(p,q);
//
// plus the classical baselines (bitonic, periodic, odd-even merge,
// bubble). Every network is simultaneously a sorting network (run it
// over a batch of values with Sort) and a counting network (feed it
// token counts with Step, or build a concurrent Fetch&Increment
// Counter on it).
//
// A quick taste:
//
//	net, _ := countnet.NewL(2, 3, 5) // width 30, 2-,3-,5-balancers only
//	sorted := net.Sort([]int64{9, 4, 7, ...}) // ascending
//	ctr := countnet.NewCounter(net)
//	v := ctr.Next() // concurrent fetch-and-increment
package countnet

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"countnet/internal/baseline"
	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/factor"
	"countnet/internal/network"
	"countnet/internal/runner"
	"countnet/internal/sched"
	"countnet/internal/seq"
	"countnet/internal/verify"
)

// Network is a sorting/counting network of fixed width.
type Network struct {
	inner *network.Network

	// planCache lazily compiles the network into a flat evaluation
	// plan the first time a sorting fast path runs; every subsequent
	// Sort, BatchSorter and SortBatches reuses it. The cache records
	// which network it was compiled from, so rebinding the Network
	// (UnmarshalJSON) invalidates it naturally.
	planCache atomic.Pointer[cachedPlan]
}

type cachedPlan struct {
	net  *network.Network
	plan *runner.Plan
	// scratch pools *runner.Scratch sized for plan. It is a separate
	// allocation because the runtime holds every used pool for up to
	// two garbage collections: embedded, it would hold the network and
	// plan as long, after the caller has dropped them.
	scratch *sync.Pool
}

// evalPlanCache returns the network's compiled evaluation plan,
// compiling it on first use. Safe for concurrent callers: a lost race
// compiles twice and keeps either result, both equivalent.
func (n *Network) evalPlanCache() *cachedPlan {
	if c := n.planCache.Load(); c != nil && c.net == n.inner {
		return c
	}
	c := &cachedPlan{net: n.inner, plan: runner.CompilePlan(n.inner), scratch: new(sync.Pool)}
	n.planCache.Store(c)
	return c
}

// evalPlan returns the compiled plan itself.
func (n *Network) evalPlan() *runner.Plan { return n.evalPlanCache().plan }

// NewK builds the family-K network K(p0,...,pn-1): width p0*...*pn-1,
// depth exactly 1.5n^2-3.5n+2 (n >= 2), comparators/balancers of width
// at most max(pi*pj). Every factor must be at least 2.
func NewK(factors ...int) (*Network, error) { return wrapErr(core.K(factors...)) }

// NewL builds the family-L network L(p0,...,pn-1): width p0*...*pn-1,
// depth at most 9.5n^2-12.5n+3, comparators/balancers of width at most
// max(pi). Every factor must be at least 2.
func NewL(factors ...int) (*Network, error) { return wrapErr(core.L(factors...)) }

// NewR builds the constant-depth network R(p,q) (p,q >= 2): width p*q,
// depth at most 16, comparators/balancers of width at most max(p,q).
func NewR(p, q int) (*Network, error) { return wrapErr(core.R(p, q)) }

// NewKOpt builds the Kopt variant of family K: every base-case C(p,q)
// slot with p*q <= 16 is realized by the embedded depth-optimal
// sorting network of that width (2-balancers only) instead of one
// pq-wide switch; wider slots fall back to the bare balancer. The
// result is a SORTING network only — the substituted bases are
// sorting networks, not counting networks, so the counting guarantee
// of family K does not carry over (like NewBubble and
// NewOddEvenMergeSort, it sorts but must not be used as a counter).
func NewKOpt(factors ...int) (*Network, error) { return wrapErr(core.KOpt(factors...)) }

// NewLOpt builds the Lopt variant of family L: embedded depth-optimal
// sorting networks in the C(p,q) slots with p*q <= 16, R(p,q) beyond.
// Sorting-only, like NewKOpt.
func NewLOpt(factors ...int) (*Network, error) { return wrapErr(core.LOpt(factors...)) }

// NewROpt builds the optimal-base counterpart of R(p,q): the embedded
// depth-optimal sorting network of width p*q when p*q <= 16 (depth at
// most 10, 2-balancers only), R(p,q) itself beyond the table.
// Sorting-only, like NewKOpt.
func NewROpt(p, q int) (*Network, error) { return wrapErr(core.ROpt(p, q)) }

// NewOptSorter builds the embedded depth-optimal sorting network of
// width w (2 <= w <= 16) on its own: proven- or near-optimal depth,
// 2-comparators only. It sorts but is not a counting network.
func NewOptSorter(w int) (*Network, error) { return wrapErr(core.OptSortNetwork(w)) }

// NewBitonic builds the classical bitonic counting network of width
// w = 2^k (depth k(k+1)/2, 2-balancers).
func NewBitonic(w int) (*Network, error) { return wrapErr(baseline.Bitonic(w)) }

// NewPeriodic builds the periodic balanced counting network of width
// w = 2^k (depth k^2, 2-balancers).
func NewPeriodic(w int) (*Network, error) { return wrapErr(baseline.Periodic(w)) }

// NewOddEvenMergeSort builds Batcher's odd-even merge sorting network
// of width w = 2^k. It sorts but is not a counting network.
func NewOddEvenMergeSort(w int) (*Network, error) { return wrapErr(baseline.OddEvenMergeSort(w)) }

// NewBubble builds the bubble-sort network of the paper's Figure 3:
// a sorting network that is not a counting network.
func NewBubble(w int) (*Network, error) { return wrapErr(baseline.Bubble(w)) }

// NewMergeExchange builds Batcher's merge-exchange sorting network for
// arbitrary width w (2-comparators, depth <= ceil(log2 w)(ceil(log2 w)+1)/2).
// It sorts but is not a counting network.
func NewMergeExchange(w int) (*Network, error) { return wrapErr(baseline.MergeExchange(w)) }

func wrapErr(n *network.Network, err error) (*Network, error) {
	if err != nil {
		return nil, err
	}
	return &Network{inner: n}, nil
}

// Name returns the construction name, e.g. "L(2,3,5)".
func (n *Network) Name() string { return n.inner.Name }

// Width returns the number of input (and output) wires.
func (n *Network) Width() int { return n.inner.Width() }

// Depth returns the maximum number of comparators/balancers traversed
// by any value or token.
func (n *Network) Depth() int { return n.inner.Depth() }

// Size returns the number of comparators/balancers.
func (n *Network) Size() int { return n.inner.Size() }

// MaxBalancerWidth returns the width of the widest comparator/balancer.
func (n *Network) MaxBalancerWidth() int { return n.inner.MaxGateWidth() }

// BalancerWidthHistogram returns, for each balancer width occurring in
// the network, the number of balancers of that width.
func (n *Network) BalancerWidthHistogram() map[int]int { return n.inner.GateWidthHistogram() }

// GateInfo describes one comparator/balancer for read-only
// introspection (tooling, custom renderers, hardware export).
type GateInfo struct {
	// Wires lists the wire indices in port order; the first port
	// receives the largest value (comparator) or first token (balancer).
	Wires []int
	// Layer is the 1-based critical-path layer.
	Layer int
	// Label records the construction step that produced the gate.
	Label string
}

// Gates returns the network's gates in topological order. The returned
// data is a copy; mutating it does not affect the network.
func (n *Network) Gates() []GateInfo {
	out := make([]GateInfo, len(n.inner.Gates))
	for i := range n.inner.Gates {
		g := &n.inner.Gates[i]
		out[i] = GateInfo{
			Wires: append([]int(nil), g.Wires...),
			Layer: g.Layer,
			Label: g.Label,
		}
	}
	return out
}

// OutputOrder returns the wire permutation in which the output sequence
// is read: output position k lives on wire OutputOrder()[k].
func (n *Network) OutputOrder() []int {
	return append([]int(nil), n.inner.OutputOrder...)
}

// String summarizes the network.
func (n *Network) String() string { return n.inner.String() }

// DOT renders the network in Graphviz dot format.
func (n *Network) DOT() string { return n.inner.DOT() }

// ASCII renders a compact layer-by-layer text diagram.
func (n *Network) ASCII() string { return n.inner.ASCII() }

// Diagram renders the network in the style of the paper's figures: one
// line per wire, gates as vertical connectors with a dot per touched
// wire. Best for small networks.
func (n *Network) Diagram() string { return n.inner.Diagram() }

// MarshalJSON encodes the network structure.
func (n *Network) MarshalJSON() ([]byte, error) { return n.inner.MarshalJSON() }

// UnmarshalJSON decodes and validates a network.
func (n *Network) UnmarshalJSON(data []byte) error {
	var in network.Network
	if err := in.UnmarshalJSON(data); err != nil {
		return err
	}
	n.inner = &in
	return nil
}

// Sort runs the network as a sorting network over one batch of exactly
// Width values and returns them in ascending order. It returns an
// error if the batch size does not match the width.
func (n *Network) Sort(values []int64) ([]int64, error) {
	if len(values) != n.Width() {
		return nil, fmt.Errorf("countnet: batch of %d values for width-%d network", len(values), n.Width())
	}
	c := n.evalPlanCache()
	s, _ := c.scratch.Get().(*runner.Scratch)
	if s == nil {
		s = c.plan.NewScratch()
	}
	out := make([]int64, len(values))
	c.plan.ApplyAscending(out, values, s)
	c.scratch.Put(s)
	return out, nil
}

// SortFunc sorts one batch of arbitrary elements (descending per the
// network's step orientation would be unidiomatic for callers, so the
// result is ascending by less).
func SortFunc[T any](n *Network, values []T, less func(a, b T) bool) ([]T, error) {
	if len(values) != n.Width() {
		return nil, fmt.Errorf("countnet: batch of %d values for width-%d network", len(values), n.Width())
	}
	out := runner.ApplyComparatorsFunc(n.inner, values, less)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}

// Step runs the network as a balancing network in a quiescent state:
// tokens[i] tokens enter on wire i, and the result is the per-output
// token distribution in output order. For a counting network the result
// always has the step property.
func (n *Network) Step(tokens []int64) ([]int64, error) {
	if len(tokens) != n.Width() {
		return nil, fmt.Errorf("countnet: %d token counts for width-%d network", len(tokens), n.Width())
	}
	return runner.ApplyTokens(n.inner, tokens), nil
}

// VerifyCounting runs the repository's counting-network battery
// (bounded-exhaustive and randomized step-property checks plus a serial
// cross-check) and returns the first violation found, or nil. Failures
// name the offending input, the random trial, and the seed — the error
// message alone is a one-line repro.
func (n *Network) VerifyCounting(seed int64) error {
	return verify.IsCountingNetworkSeeded(n.inner, seed)
}

// VerifySorting runs the sorting battery (exhaustive 0-1 principle up
// to width 20, randomized beyond) and returns the first violation
// found, or nil. Failure messages are one-line repros; see
// VerifyCounting.
func (n *Network) VerifySorting(seed int64) error {
	return verify.IsSortingNetworkSeeded(n.inner, seed)
}

// FormatText renders the network in the compact layer notation of the
// sorting-network literature ("0:1 2:3" per layer; wider balancers as
// "a:b:c"). ParseTextNetwork reads it back.
func (n *Network) FormatText() string { return n.inner.FormatText() }

// ParseTextNetwork parses the layer notation (one line per layer,
// gates as colon-joined wire lists, '#' comments) into a network of
// the given width.
func ParseTextNetwork(name string, width int, src string) (*Network, error) {
	return wrapErr(network.ParseText(name, width, src))
}

// Verilog emits the network as a synthesizable combinational sorting
// module of 2-input compare-exchange stages. Only binary comparator
// networks qualify (max balancer width 2): L(2,...,2), the bitonic,
// periodic, odd-even and merge-exchange baselines.
func (n *Network) Verilog(moduleName string, dataBits int) (string, error) {
	return n.inner.Verilog(moduleName, dataBits)
}

// TraceTokens injects one token per entry wire listed (serially, in
// order) and returns a human-readable rendering of each token's path —
// the gates traversed with arrival ranks, the exit position, and the
// Fetch&Increment value the token would receive. The textual analogue
// of the paper's Figure 3 token-flow arrows.
func (n *Network) TraceTokens(entries []int) (string, error) {
	for _, e := range entries {
		if e < 0 || e >= n.Width() {
			return "", fmt.Errorf("countnet: entry wire %d outside width %d", e, n.Width())
		}
	}
	// An empty Replay never preempts: token 0 runs to completion, then
	// token 1, and so on, each through the shipped atomic walk. The
	// system's step-property check is dropped: a network that does not
	// count (NewBubble) still has a trace to show.
	tasks, _ := sched.TokenSystem(n.inner, entries)()
	tr, err := sched.Run(&sched.Replay{}, len(entries)*(n.inner.Depth()+2), tasks)
	if err != nil {
		return "", err
	}
	return sched.FormatTokenSchedule(n.inner, entries, tr), nil
}

// Counter is a concurrent Fetch&Increment counter backed by a counting
// network: a low-contention alternative to a single atomic word. Values
// are distinct; once the network is quiescent the issued values are
// exactly 0..N-1.
type Counter struct {
	inner counter.Handled
}

// NewCounter builds a counter over the given counting network. The
// caller is responsible for passing a network that actually counts
// (anything from NewK/NewL/NewR/NewBitonic/NewPeriodic does). Every
// Next shepherds its own token through the balancers. Pass
// WithObservability to record per-balancer metrics.
func NewCounter(n *Network, opts ...Option) *Counter {
	c := counter.NewNetworkCounter(n.inner, false)
	if o := buildOptions(opts); o.obsName != "" {
		c.EnableObs(o.obsName, nil)
	}
	return &Counter{inner: c}
}

// NewCombiningCounter builds a flat-combining counter over the given
// counting network: concurrent requests are drained by one combiner and
// pushed through the network as a single batch (one fetch-and-add per
// balancer per batch), then the claimed value blocks are handed back.
// Same contract as NewCounter, higher throughput under contention and
// for block draws; see docs/PERFORMANCE.md. Pass WithObservability to
// record combine-pass and per-balancer metrics.
func NewCombiningCounter(n *Network, opts ...Option) *Counter {
	c := counter.NewCombiningCounter(n.inner)
	if o := buildOptions(opts); o.obsName != "" {
		c.EnableObs(o.obsName, nil)
	}
	return &Counter{inner: c}
}

// AdaptiveCounter is a Fetch&Increment counter over one atomic
// fetch-and-add word whose handles prefetch 32 values at a time, so
// the shared word sees one atomic add per block (see
// docs/PERFORMANCE.md, "Adaptive engine"). At quiescence the values
// handed out — including prefetched values not yet returned by a
// handle's Next — are exactly 0..N-1.
type AdaptiveCounter struct {
	inner *counter.AdaptiveCounter
}

// NewAdaptiveCounter builds an adaptive counter. The counter draws
// from its own word, so n is not consulted. With WithObservability the
// counter registers a group under the given name that reports ops,
// the values drawn from the word.
func NewAdaptiveCounter(n *Network, opts ...Option) *AdaptiveCounter {
	c := counter.NewAdaptiveCounter()
	if o := buildOptions(opts); o.obsName != "" {
		c.EnableObs(o.obsName, nil)
	}
	return &AdaptiveCounter{inner: c}
}

// Next issues the next value. Safe for concurrent use; in tight loops
// prefer per-goroutine handles from Handle.
func (c *AdaptiveCounter) Next() int64 { return c.inner.Next() }

// NextBlock fills dst with len(dst) fresh values.
func (c *AdaptiveCounter) NextBlock(dst []int64) { c.inner.NextBlock(dst) }

// Handle returns a goroutine-local handle (see Counter.Handle). A
// handle registers nothing with the counter, so handles may be made
// per operation.
func (c *AdaptiveCounter) Handle(id int) *CounterHandle {
	return &CounterHandle{inner: c.inner.Handle(id)}
}

// Next issues the next value. Safe for concurrent use; in tight loops
// prefer per-goroutine handles from Handle.
func (c *Counter) Next() int64 { return c.inner.Next() }

// NextBlock fills dst with len(dst) fresh values — distinct, and part
// of the same gap-free 0..N-1 space as single draws. Combining counters
// serve the whole block from one network batch.
func (c *Counter) NextBlock(dst []int64) { nextBlock(c.inner, dst) }

// CounterHandle is a single-goroutine view of a Counter.
type CounterHandle struct {
	inner counter.Counter
}

// Handle returns a goroutine-local handle; id disperses the handles'
// entry wires (pass the worker index). Handles must not be shared.
func (c *Counter) Handle(id int) *CounterHandle {
	return &CounterHandle{inner: c.inner.Handle(id)}
}

// Next issues the next value.
func (h *CounterHandle) Next() int64 { return h.inner.Next() }

// NextBlock fills dst with len(dst) fresh values (see Counter.NextBlock).
func (h *CounterHandle) NextBlock(dst []int64) { nextBlock(h.inner, dst) }

func nextBlock(c counter.Counter, dst []int64) {
	if bc, ok := c.(counter.BlockCounter); ok {
		bc.NextBlock(dst)
		return
	}
	for i := range dst {
		dst[i] = c.Next()
	}
}

// RenderStepArrangements draws the step sequence of the given total
// over r*c wires under all four Section 3.1 matrix arrangements — the
// paper's Figure 5 as text ('#' = high region, '.' = low).
func RenderStepArrangements(total int64, r, c int) string {
	x := seq.MakeStep(r*c, total)
	var sb strings.Builder
	for _, a := range []seq.Arrangement{seq.RowMajor, seq.ReverseRowMajor, seq.ColMajor, seq.ReverseColMajor} {
		fmt.Fprintf(&sb, "%s:\n%s", a, seq.RenderArrangement(x, r, c, a))
	}
	return sb.String()
}

// Barrier is a reusable n-party synchronization barrier whose arrival
// tickets come from a counting-network counter, spreading arrival
// contention across balancers.
type Barrier struct {
	inner *counter.Barrier
}

// NewBarrier builds a barrier for parties participants over a fresh
// counter on the given counting network.
func NewBarrier(n *Network, parties int) *Barrier {
	return &Barrier{inner: counter.NewBarrier(parties, n.inner)}
}

// Await blocks until all parties of the caller's generation have
// arrived and returns the 0-based generation number.
func (b *Barrier) Await() int64 {
	gen, _ := b.inner.Await() // fails only after Close, which countnet does not expose
	return gen
}

// Handle returns a goroutine-local barrier view whose arrival tickets
// bypass the ticket counter's shared entry dispatcher; id disperses the
// handles' entry wires. Handles must not be shared.
func (b *Barrier) Handle(id int) *BarrierHandle {
	return &BarrierHandle{inner: b.inner.Handle(id)}
}

// BarrierHandle is a single-goroutine view of a Barrier.
type BarrierHandle struct {
	inner *counter.BarrierHandle
}

// Await blocks until all parties of the caller's generation have
// arrived and returns the 0-based generation number.
func (h *BarrierHandle) Await() int64 {
	gen, _ := h.inner.Await() // fails only after Close, which countnet does not expose
	return gen
}

// Factorizations lists every multiset factorization of w into factors
// >= 2 (each non-increasing), the parameter space of the network
// family for a fixed width.
func Factorizations(w int) [][]int { return factor.Factorizations(w, 2) }

// BalancedFactorization returns a factorization of w into at most n
// factors minimizing the largest factor — a good default for NewL when
// the caller just wants narrow balancers and small depth.
func BalancedFactorization(w, n int) []int { return factor.Balanced(w, n) }

// FactorizationAdvice is a measurement-driven recommendation of an
// L-family factorization for a load profile (the paper's Theorem 7
// width/depth tradeoff picked from data rather than by hand).
type FactorizationAdvice struct {
	// Factors parameterizes NewL.
	Factors []int
	// Depth and MaxBalancerWidth describe the recommended network.
	Depth            int
	MaxBalancerWidth int
	// Rationale explains the pick in terms of the cost model.
	Rationale string
}

// AdviseFactorization recommends the L-family factorization of width w
// for the given load profile: concurrency is the expected mean number
// of concurrent requesters (a measured load, or a capacity target),
// block the mean values drawn per request (>= 1; batched draws divide
// per-balancer pressure). It builds every factorization of w, scores
// each with a contention-aware cost model calibrated on the committed
// benchmark lanes, and returns the cheapest — see
// internal/factor.Advise. Enumeration is exhaustive, so keep w modest
// (hundreds, not millions).
func AdviseFactorization(w int, concurrency, block float64) (FactorizationAdvice, error) {
	cands, err := adviseCandidates(w)
	if err != nil {
		return FactorizationAdvice{}, err
	}
	r, err := factor.Advise(factor.Profile{Concurrency: concurrency, Block: block}, cands)
	if err != nil {
		return FactorizationAdvice{}, err
	}
	return FactorizationAdvice{
		Factors:          r.Factors,
		Depth:            r.Depth,
		MaxBalancerWidth: r.MaxWidth,
		Rationale:        r.Rationale,
	}, nil
}

// adviseCandidates builds one scored candidate per factorization of w:
// the real L network's depth, widest balancer, and per-layer balancer
// counts (what the cost model charges contention against).
func adviseCandidates(w int) ([]factor.Candidate, error) {
	fss := factor.Factorizations(w, 2)
	if len(fss) == 0 {
		return nil, fmt.Errorf("countnet: no factorization of width %d (need w >= 2)", w)
	}
	cands := make([]factor.Candidate, 0, len(fss))
	for _, fs := range fss {
		net, err := core.L(fs...)
		if err != nil {
			return nil, err
		}
		layers := make([]int, net.Depth())
		for i := range net.Gates {
			layers[net.Gates[i].Layer-1]++
		}
		cands = append(cands, factor.Candidate{
			Factors:    fs,
			Depth:      net.Depth(),
			LayerGates: layers,
			MaxWidth:   net.MaxGateWidth(),
		})
	}
	return cands, nil
}
