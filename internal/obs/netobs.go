package obs

// NetObs holds the per-gate/per-layer counters and phase histograms of
// one compiled network. Create with NewNetObs before the network sees
// concurrent traffic; recording methods are safe for concurrent use
// and allocation-free.
type NetObs struct {
	name      string
	kind      string
	gateLayer []int32 // gate -> 1-based layer
	layers    int
	// tokens reads gate g's token count from the balancer itself, whose
	// arrival counter already is that count.
	tokens func(g int) int64
	// contended counts lock-mode acquisitions that found the gate busy,
	// one padded counter per gate.
	contended []PaddedCount

	// TraverseNs is the per-token network walk latency (Traverse,
	// TraverseMutex); BatchNs the whole-batch propagation latency
	// (TraverseBatch); BatchTokens the token count per batch.
	TraverseNs  *Hist
	BatchNs     *Hist
	BatchTokens *Hist
}

// NewNetObs builds obs state for a network whose gate i sits on
// 1-based layer gateLayer[i] and has seen tokens(i) tokens.
func NewNetObs(name string, gateLayer []int32, tokens func(g int) int64) *NetObs {
	layers := 0
	for _, l := range gateLayer {
		if int(l) > layers {
			layers = int(l)
		}
	}
	return &NetObs{
		name:        name,
		kind:        "network",
		gateLayer:   append([]int32(nil), gateLayer...),
		layers:      layers,
		tokens:      tokens,
		contended:   make([]PaddedCount, len(gateLayer)),
		TraverseNs:  NewHist(),
		BatchNs:     NewHist(),
		BatchTokens: NewHist(),
	}
}

// Name returns the group name given at construction.
func (o *NetObs) Name() string { return o.name }

// GateContended records a lock-mode acquisition of gate g that found
// the balancer already held.
//
//netvet:hotpath
func (o *NetObs) GateContended(g int32) { o.contended[g].Inc() }

// GroupSnapshot implements Source.
func (o *NetObs) GroupSnapshot() GroupSnapshot {
	g := GroupSnapshot{
		Name: o.name,
		Kind: o.kind,
		Hists: []HistMetric{
			{Name: "traverse_ns", Hist: o.TraverseNs.Snapshot()},
			{Name: "batch_ns", Hist: o.BatchNs.Snapshot()},
			{Name: "batch_tokens", Hist: o.BatchTokens.Snapshot()},
		},
	}
	o.appendGateLayers(&g)
	return g
}

// appendGateLayers fills the per-gate rows and the per-layer
// aggregation of a group snapshot.
func (o *NetObs) appendGateLayers(g *GroupSnapshot) {
	if len(o.gateLayer) == 0 {
		return
	}
	layers := make([]LayerSnapshot, o.layers)
	for i := range layers {
		layers[i].Layer = i + 1
	}
	g.Gates = make([]GateSnapshot, len(o.gateLayer))
	for i := range o.gateLayer {
		gs := GateSnapshot{
			Gate:      i,
			Layer:     int(o.gateLayer[i]),
			Tokens:    o.tokens(i),
			Contended: o.contended[i].Load(),
		}
		g.Gates[i] = gs
		if gs.Layer >= 1 && gs.Layer <= len(layers) {
			l := &layers[gs.Layer-1]
			l.Gates++
			l.Tokens += gs.Tokens
			l.Contended += gs.Contended
			if gs.Tokens > l.MaxGateTokens {
				l.MaxGateTokens = gs.Tokens
			}
		}
	}
	g.Layers = layers
}
