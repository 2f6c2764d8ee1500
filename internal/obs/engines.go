package obs

import "sync/atomic"

// Engine-specific observation state. Each engine (per-token counter,
// flat-combining counter, pool) owns one of these structs, nil when
// observation is off; the structs embed a NetObs for the underlying
// network so one group snapshot carries an engine's whole story —
// operation latency at the top, per-gate contention underneath.

// CounterObs observes a per-token network counter (NetworkCounter):
// operation count, Next latency, plus the underlying network's
// per-gate traffic.
type CounterObs struct {
	Net *NetObs
	// OpsFn reports total values issued, read from the counter's own
	// per-wire local counters; the draw path records nothing for it.
	OpsFn  func() int64
	NextNs *Hist // end-to-end Next latency (dispatch + walk + local counter)
}

// NewCounterObs builds counter obs over the network obs (which must
// not be nil; the counter owns its compiled network) and the counter's
// issued-value reader.
func NewCounterObs(name string, net *NetObs, ops func() int64) *CounterObs {
	net.name = name
	net.kind = "counter"
	return &CounterObs{Net: net, OpsFn: ops, NextNs: NewHist()}
}

// GroupSnapshot implements Source.
func (o *CounterObs) GroupSnapshot() GroupSnapshot {
	g := o.Net.GroupSnapshot()
	g.Counters = append(g.Counters, Metric{Name: "ops", Value: o.OpsFn()})
	g.Hists = append([]HistMetric{{Name: "next_ns", Hist: o.NextNs.Snapshot()}}, g.Hists...)
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
	g.Hists = append([]HistMetric{
		{Name: "pass_ns", Hist: o.PassNs.Snapshot()},
		{Name: "pass_served", Hist: o.PassServed.Snapshot()},
		{Name: "pass_queue", Hist: o.PassQueue.Snapshot()},
	}, g.Hists...)
	return g
}

// AdaptiveObs observes the adaptive counter front-end: which engine is
// active, how often and why it switched, the governor's load estimate,
// and the probe latencies the estimate rests on. The draw fast path
// writes nothing here — issued-value totals come from the counter's
// own per-handle slots via OpsFn, so observation stays allocation- and
// contention-free while the strategy gauges track the governor.
type AdaptiveObs struct {
	name string
	// OpsFn reports total values issued (sum of per-handle slot
	// counters); set by the owning counter when obs is enabled.
	OpsFn func() int64
	// StrategyFn resolves the current engine id to its name; set by
	// the owning counter (keeps obs free of an engine-name table).
	StrategyFn func(int64) string

	Strategy  atomic.Int64 // active engine id (gauge)
	Switches  PaddedCount  // completed strategy transitions
	LoadMilli atomic.Int64 // governor load estimate ×1000 (gauge)
	Block     atomic.Int64 // current combining prefetch block (gauge)
	ProbeNs   *Hist        // governor probe: per-value draw latency

	reason atomic.Pointer[string] // last switch reason
}

// NewAdaptiveObs builds adaptive obs.
func NewAdaptiveObs(name string) *AdaptiveObs {
	return &AdaptiveObs{name: name, ProbeNs: NewHist()}
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
		Hists: []HistMetric{{Name: "probe_ns", Hist: o.ProbeNs.Snapshot()}},
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
// how often a Get had to block for its item.
type PoolObs struct {
	name     string
	Puts     PaddedCount
	Gets     PaddedCount
	GetWaits PaddedCount // Gets that blocked before their item arrived
}

// NewPoolObs builds pool obs.
func NewPoolObs(name string) *PoolObs { return &PoolObs{name: name} }

// GroupSnapshot implements Source.
func (o *PoolObs) GroupSnapshot() GroupSnapshot {
	return GroupSnapshot{
		Name: o.name,
		Kind: "pool",
		Counters: []Metric{
			{Name: "puts", Value: o.Puts.Load()},
			{Name: "gets", Value: o.Gets.Load()},
			{Name: "get_waits", Value: o.GetWaits.Load()},
		},
	}
}
