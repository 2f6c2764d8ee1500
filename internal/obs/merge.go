package obs

// Snapshot merging: the fleet aggregation primitive.
//
// One process's Snapshot describes one registry; a fleet run (N
// harness workers today, N countd nodes tomorrow) produces N of them.
// Merge folds any two into the snapshot a single process would have
// produced had it done all the work: counters, gate/layer token
// counts, and histogram buckets sum; watermarks take min/max;
// string-valued fields (Kind, Origin) take set unions.
//
// Merge is a commutative, associative monoid operation with the empty
// snapshot as identity — proven by property tests and FuzzSnapshotMerge
// in merge_test.go. That algebra is the point: the runner can fold
// worker snapshots in arrival order, netmon -fleet can fold endpoint
// scrapes in poll order, and a future cmd/countd tier can fold
// sub-aggregates, all producing the same fleet view. Output is always
// in canonical form (groups and metrics sorted, histogram buckets
// trimmed, union strings sorted), so equal aggregates are deeply equal.

import (
	"sort"
	"strings"
)

// Merge combines two snapshots into one fleet snapshot. Either input
// may be nil or empty (the identity); inputs are not modified.
//
// Per same-named group: Counters, gate/layer Tokens and
// Contended sum; histograms of equal period sum Count/Sum/CASRetries
// and buckets and keep that period, while Min/Max merge as watermarks
// over the inputs that actually saw samples. Histograms of different
// periods are never added as if alike: the merged histogram takes the
// finest common period (the gcd, which for power-of-two periods is the
// smallest) and each input's Count, Sum and buckets are scaled by its
// own period over that one before they are added, so every merged
// count stays an estimate of the same events; CASRetries, a count of
// the recorder's own retries, is not scaled; LayerSnapshot.MaxGateTokens is recomputed from the merged
// per-gate sums whenever the merged group retains gates for that
// layer (the exact busiest-gate figure), falling back to max of the
// inputs' values otherwise; Kind and Origin values union.
// TakenUnixNano is the latest of the two.
func Merge(a, b *Snapshot) *Snapshot {
	acc := newSnapAcc()
	acc.add(a)
	acc.add(b)
	return acc.render()
}

// MergeAll folds any number of snapshots (the runner's per-phase fleet
// fold and netmon's endpoint fold). Returns the canonical empty
// snapshot when given nothing.
func MergeAll(snaps ...*Snapshot) *Snapshot {
	acc := newSnapAcc()
	for _, s := range snaps {
		acc.add(s)
	}
	return acc.render()
}

// TagOrigin stamps origin onto every group that does not already carry
// one — the worker calls this on its own snapshot before shipping it,
// so the merged fleet view can say which processes fed each group.
func (s *Snapshot) TagOrigin(origin string) {
	if s == nil {
		return
	}
	for i := range s.Groups {
		if s.Groups[i].Origin == "" {
			s.Groups[i].Origin = origin
		}
	}
}

// snapAcc accumulates any number of snapshots before rendering one
// canonical result.
type snapAcc struct {
	taken  int64
	groups map[string]*groupAcc
}

type groupAcc struct {
	kinds    map[string]bool
	origins  map[string]bool
	counters map[string]int64
	hists    map[string]*histAcc
	gates    map[int]*gateAcc
	layers   map[int]*layerAcc
}

type histAcc struct {
	count, sum, casRetries int64
	every                  int64 // period of count, sum and buckets; 0 until the first input
	sampled                bool  // any input had Count > 0
	min, max               int64
	buckets                []int64
}

type gateAcc struct {
	layer             int
	tokens, contended int64
}

type layerAcc struct {
	gates             int
	tokens, contended int64
	maxGate           int64 // fallback when no merged gate maps to the layer
}

func newSnapAcc() *snapAcc {
	return &snapAcc{groups: map[string]*groupAcc{}}
}

func (sa *snapAcc) add(s *Snapshot) {
	if s == nil {
		return
	}
	if s.TakenUnixNano > sa.taken {
		sa.taken = s.TakenUnixNano
	}
	for i := range s.Groups {
		sa.addGroup(&s.Groups[i])
	}
}

func (sa *snapAcc) addGroup(g *GroupSnapshot) {
	acc := sa.groups[g.Name]
	if acc == nil {
		acc = &groupAcc{
			kinds:    map[string]bool{},
			origins:  map[string]bool{},
			counters: map[string]int64{},
			hists:    map[string]*histAcc{},
			gates:    map[int]*gateAcc{},
			layers:   map[int]*layerAcc{},
		}
		sa.groups[g.Name] = acc
	}
	unionInto(acc.kinds, g.Kind)
	unionInto(acc.origins, g.Origin)
	for _, c := range g.Counters {
		acc.counters[c.Name] += c.Value
	}
	for _, h := range g.Hists {
		ha := acc.hists[h.Name]
		if ha == nil {
			ha = &histAcc{}
			acc.hists[h.Name] = ha
		}
		ha.add(h.Hist)
	}
	for _, gt := range g.Gates {
		ga := acc.gates[gt.Gate]
		if ga == nil {
			ga = &gateAcc{layer: gt.Layer}
			acc.gates[gt.Gate] = ga
		}
		if gt.Layer > ga.layer {
			ga.layer = gt.Layer
		}
		ga.tokens += gt.Tokens
		ga.contended += gt.Contended
	}
	for _, l := range g.Layers {
		la := acc.layers[l.Layer]
		if la == nil {
			la = &layerAcc{}
			acc.layers[l.Layer] = la
		}
		if l.Gates > la.gates {
			la.gates = l.Gates
		}
		la.tokens += l.Tokens
		la.contended += l.Contended
		if l.MaxGateTokens > la.maxGate {
			la.maxGate = l.MaxGateTokens
		}
	}
}

func (ha *histAcc) add(h HistSnapshot) {
	p := h.Period()
	if g := gcd(ha.every, p); g != ha.every {
		if ha.every != 0 {
			ha.scale(ha.every / g)
		}
		ha.every = g
	}
	k := p / ha.every
	ha.count += h.Count * k
	ha.sum += h.Sum * k
	ha.casRetries += h.CASRetries
	if h.Count > 0 {
		if !ha.sampled || h.Min < ha.min {
			ha.min = h.Min
		}
		if !ha.sampled || h.Max > ha.max {
			ha.max = h.Max
		}
		ha.sampled = true
	}
	for len(ha.buckets) < len(h.Buckets) {
		ha.buckets = append(ha.buckets, 0)
	}
	for i, n := range h.Buckets {
		ha.buckets[i] += n * k
	}
}

// scale re-expresses the accumulated samples at a period k times finer.
func (ha *histAcc) scale(k int64) {
	ha.count *= k
	ha.sum *= k
	for i := range ha.buckets {
		ha.buckets[i] *= k
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// unionInto splits a comma-joined value set and adds its atoms.
func unionInto(set map[string]bool, v string) {
	for _, part := range strings.Split(v, ",") {
		if part != "" {
			set[part] = true
		}
	}
}

// joinSet renders a value set canonically: sorted atoms, comma-joined.
func joinSet(set map[string]bool) string {
	if len(set) == 0 {
		return ""
	}
	atoms := make([]string, 0, len(set))
	for a := range set {
		atoms = append(atoms, a)
	}
	sort.Strings(atoms)
	return strings.Join(atoms, ",")
}

func (sa *snapAcc) render() *Snapshot {
	out := &Snapshot{TakenUnixNano: sa.taken}
	names := make([]string, 0, len(sa.groups))
	for n := range sa.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.Groups = append(out.Groups, sa.groups[n].render(n))
	}
	return out
}

func (acc *groupAcc) render(name string) GroupSnapshot {
	g := GroupSnapshot{
		Name:     name,
		Kind:     joinSet(acc.kinds),
		Origin:   joinSet(acc.origins),
		Counters: renderMetrics(acc.counters),
	}
	histNames := sortedKeys(acc.hists)
	for _, n := range histNames {
		g.Hists = append(g.Hists, HistMetric{Name: n, Hist: acc.hists[n].render()})
	}
	gateIdx := sortedKeys(acc.gates)
	// maxByLayer tracks the busiest merged gate per layer: exact
	// cross-worker busiest-gate figures, since per-gate tokens summed
	// before the max is taken.
	maxByLayer := map[int]int64{}
	for _, i := range gateIdx {
		ga := acc.gates[i]
		g.Gates = append(g.Gates, GateSnapshot{Gate: i, Layer: ga.layer, Tokens: ga.tokens, Contended: ga.contended})
		if m, ok := maxByLayer[ga.layer]; !ok || ga.tokens > m {
			maxByLayer[ga.layer] = ga.tokens
		}
	}
	layerIdx := sortedKeys(acc.layers)
	for _, l := range layerIdx {
		la := acc.layers[l]
		mgt := la.maxGate
		if m, ok := maxByLayer[l]; ok {
			mgt = m
		}
		g.Layers = append(g.Layers, LayerSnapshot{
			Layer: l, Gates: la.gates, Tokens: la.tokens, Contended: la.contended,
			MaxGateTokens: mgt,
		})
	}
	return g
}

func (ha *histAcc) render() HistSnapshot {
	h := HistSnapshot{Count: ha.count, Sum: ha.sum, CASRetries: ha.casRetries, Every: ha.every}
	if ha.sampled {
		h.Min, h.Max = ha.min, ha.max
	}
	top := 0
	for i, n := range ha.buckets {
		if n != 0 {
			top = i + 1
		}
	}
	h.Buckets = append([]int64(nil), ha.buckets[:top]...)
	return h
}

func renderMetrics(m map[string]int64) []Metric {
	if len(m) == 0 {
		return nil
	}
	out := make([]Metric, 0, len(m))
	for _, n := range sortedKeys(m) {
		out = append(out, Metric{Name: n, Value: m[n]})
	}
	return out
}

// sortedKeys returns a map's keys in sorted order (string or int).
func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
