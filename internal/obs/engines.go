package obs

import "sync/atomic"

// Engine-specific observation state. Each engine (per-token counter,
// flat-combining counter, pool) owns one of these structs, nil when
// observation is off; the structs embed a NetObs for the underlying
// network so one group snapshot carries an engine's whole story —
// operation latency at the top, per-gate contention underneath.

// CounterObs observes a per-token network counter (NetworkCounter):
// operation count, Next and walk latency, plus the underlying
// network's per-gate traffic. The counter times one value in
// SampleEvery, so NextNs and TraverseNs are histograms of that period
// with equal counts; ops and the per-gate token counts stay exact.
type CounterObs struct {
	Net *NetObs
	// OpsFn reports total values issued, read from the counter's own
	// per-wire local counters; the draw path records nothing for it.
	OpsFn      func() int64
	NextNs     *Hist // Next latency (walk + local counter), sampled
	TraverseNs *Hist // the same sampled values' network walk alone
}

// NewCounterObs builds counter obs over the network obs (which must
// not be nil) and the counter's issued-value reader. The counter owns
// its compiled network and is the only one to time its walks, one
// value in SampleEvery, so both histograms take that period.
func NewCounterObs(name string, net *NetObs, ops func() int64) *CounterObs {
	net.name = name
	net.kind = "counter"
	return &CounterObs{Net: net, OpsFn: ops, NextNs: NewSampledHist(), TraverseNs: NewSampledHist()}
}

// GroupSnapshot implements Source.
func (o *CounterObs) GroupSnapshot() GroupSnapshot {
	g := o.Net.GroupSnapshot()
	g.Counters = append(g.Counters, Metric{Name: "ops", Value: o.OpsFn()})
	g.Hists = []HistMetric{
		{Name: "next_ns", Hist: o.NextNs.Snapshot()},
		{Name: "traverse_ns", Hist: o.TraverseNs.Snapshot()},
	}
	return g
}

// CombineObs observes a flat-combining counter: combiner passes, the
// spin retries of waiting handles (the front-end's contention signal),
// per-pass service latency and batch shape, plus the underlying
// network's per-gate traffic.
type CombineObs struct {
	Net         *NetObs
	Passes      PaddedCount // combiner passes executed
	SpinRetries PaddedCount // handle await loops that found the slot unserved
	PassNs      *Hist       // latency of one combine pass
	PassServed  *Hist       // values minted per pass
	PassQueue   *Hist       // pending slots drained per pass (queue depth)
}

// NewCombineObs builds combining obs over the network obs.
func NewCombineObs(name string, net *NetObs) *CombineObs {
	net.name = name
	net.kind = "combining"
	return &CombineObs{
		Net:        net,
		PassNs:     NewHist(),
		PassServed: NewHist(),
		PassQueue:  NewHist(),
	}
}

// GroupSnapshot implements Source.
func (o *CombineObs) GroupSnapshot() GroupSnapshot {
	g := o.Net.GroupSnapshot()
	g.Counters = append(g.Counters,
		Metric{Name: "passes", Value: o.Passes.Load()},
		Metric{Name: "spin_retries", Value: o.SpinRetries.Load()},
	)
	g.Hists = []HistMetric{
		{Name: "pass_ns", Hist: o.PassNs.Snapshot()},
		{Name: "pass_served", Hist: o.PassServed.Snapshot()},
		{Name: "pass_queue", Hist: o.PassQueue.Snapshot()},
	}
	return g
}

// AdaptiveObs observes the adaptive counter front-end: which engine is
// active, how often and why it switched, the governor's load estimate,
// and the draw latencies the estimate rests on. The draw path writes
// here for one draw in SampleEvery — each handle times that draw into
// DrawNs — and issued-value totals come from the engines' own counts
// via OpsFn, so observation stays allocation-free and adds no shared
// write to an unsampled draw.
type AdaptiveObs struct {
	name string
	// OpsFn reports total values issued (the sum of the engines'
	// issued counts); set by the owning counter when obs is enabled.
	OpsFn func() int64
	// StrategyFn resolves the current engine id to its name; set by
	// the owning counter (keeps obs free of an engine-name table).
	StrategyFn func(int64) string

	Strategy  atomic.Int64 // active engine id (gauge)
	Switches  PaddedCount  // completed strategy transitions
	LoadMilli atomic.Int64 // governor load estimate ×1000 (gauge)
	Block     atomic.Int64 // current combining prefetch block (gauge)
	DrawNs    *Hist        // handle draw latency, sampled 1 in SampleEvery

	reason atomic.Pointer[string] // last switch reason
}

// NewAdaptiveObs builds adaptive obs.
func NewAdaptiveObs(name string) *AdaptiveObs {
	return &AdaptiveObs{name: name, DrawNs: NewSampledHist()}
}

// SetReason records why the last switch happened.
func (o *AdaptiveObs) SetReason(r string) { o.reason.Store(&r) }

// Reason returns the last switch reason, or "" before any switch.
func (o *AdaptiveObs) Reason() string {
	if p := o.reason.Load(); p != nil {
		return *p
	}
	return ""
}

// GroupSnapshot implements Source.
func (o *AdaptiveObs) GroupSnapshot() GroupSnapshot {
	g := GroupSnapshot{
		Name: o.name,
		Kind: "adaptive",
		Counters: []Metric{
			{Name: "switches", Value: o.Switches.Load()},
		},
		Gauges: []Metric{
			{Name: "strategy", Value: o.Strategy.Load()},
			{Name: "est_load_milli", Value: o.LoadMilli.Load()},
			{Name: "combine_block", Value: o.Block.Load()},
		},
		Hists: []HistMetric{{Name: "draw_ns", Hist: o.DrawNs.Snapshot()}},
	}
	if o.OpsFn != nil {
		g.Counters = append([]Metric{{Name: "ops", Value: o.OpsFn()}}, g.Counters...)
	}
	strategy := ""
	if o.StrategyFn != nil {
		strategy = o.StrategyFn(o.Strategy.Load())
	}
	g.Status = []StatusMetric{
		{Name: "strategy", Value: strategy},
		{Name: "last_switch_reason", Value: o.Reason()},
	}
	return g
}

// PoolObs observes the producer/consumer pool: operation counts and
// how often a Get had to block for its item. Puts and gets are the
// values issued by the pool's put and get counters, read from their
// own state; only the blocking Get records anything.
type PoolObs struct {
	name       string
	puts, gets func() int64
	GetWaits   PaddedCount // Gets that blocked before their item arrived
}

// NewPoolObs builds pool obs over readers of the put and get counts.
func NewPoolObs(name string, puts, gets func() int64) *PoolObs {
	return &PoolObs{name: name, puts: puts, gets: gets}
}

// GroupSnapshot implements Source.
func (o *PoolObs) GroupSnapshot() GroupSnapshot {
	return GroupSnapshot{
		Name: o.name,
		Kind: "pool",
		Counters: []Metric{
			{Name: "puts", Value: o.puts()},
			{Name: "gets", Value: o.gets()},
			{Name: "get_waits", Value: o.GetWaits.Load()},
		},
	}
}
