package obs

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

// AdaptiveObs observes the adaptive counter: the values it has issued,
// read from its atomic word. The draw path records nothing.
type AdaptiveObs struct {
	name string
	ops  func() int64
}

// NewAdaptiveObs builds adaptive obs over the counter's issued-value
// reader.
func NewAdaptiveObs(name string, ops func() int64) *AdaptiveObs {
	return &AdaptiveObs{name: name, ops: ops}
}

// GroupSnapshot implements Source.
func (o *AdaptiveObs) GroupSnapshot() GroupSnapshot {
	return GroupSnapshot{
		Name:     o.name,
		Kind:     "adaptive",
		Counters: []Metric{{Name: "ops", Value: o.ops()}},
	}
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
