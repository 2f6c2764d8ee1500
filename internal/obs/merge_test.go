package obs

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// canon normalizes a snapshot by merging it with the identity: all
// property tests compare canonical forms, which Merge always emits.
func canon(s *Snapshot) *Snapshot { return Merge(s, &Snapshot{}) }

// genSnapshot builds a pseudo-random but semantically valid snapshot:
// group names drawn from a small pool (so merges overlap), histogram
// counts consistent with their buckets, min <= max when sampled.
func genSnapshot(r *rand.Rand) *Snapshot {
	groupNames := []string{"adaptive", "net", "worker", "combining"}
	kinds := []string{"adaptive", "network", "counter", "combining"}
	s := &Snapshot{TakenUnixNano: r.Int63n(1 << 40)}
	for i := 0; i < 1+r.Intn(3); i++ {
		g := GroupSnapshot{
			Name: groupNames[r.Intn(len(groupNames))],
			Kind: kinds[r.Intn(len(kinds))],
		}
		if r.Intn(2) == 0 {
			g.Origin = []string{"w1", "w2", "w3"}[r.Intn(3)]
		}
		for j := 0; j < r.Intn(4); j++ {
			g.Counters = append(g.Counters, Metric{Name: []string{"ops", "draws", "switches"}[r.Intn(3)], Value: r.Int63n(1e6)})
		}
		for j := 0; j < r.Intn(3); j++ {
			g.Hists = append(g.Hists, HistMetric{Name: []string{"draw_ns", "probe_ns"}[r.Intn(2)], Hist: genHist(r)})
		}
		if r.Intn(2) == 0 {
			layers := 1 + r.Intn(3)
			for gi := 0; gi < 2*layers; gi++ {
				g.Gates = append(g.Gates, GateSnapshot{
					Gate: gi, Layer: gi/2 + 1,
					Tokens: r.Int63n(1e4), Contended: r.Int63n(100),
				})
			}
			for l := 1; l <= layers; l++ {
				var tok, cont, mgt int64
				for _, gt := range g.Gates {
					if gt.Layer != l {
						continue
					}
					tok += gt.Tokens
					cont += gt.Contended
					if gt.Tokens > mgt {
						mgt = gt.Tokens
					}
				}
				g.Layers = append(g.Layers, LayerSnapshot{Layer: l, Gates: 2, Tokens: tok, Contended: cont, MaxGateTokens: mgt})
			}
		}
		s.Groups = append(s.Groups, g)
	}
	return s
}

func genHist(r *rand.Rand) HistSnapshot {
	h := HistSnapshot{}
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		c := r.Int63n(100)
		h.Buckets = append(h.Buckets, c)
		h.Count += c
	}
	if h.Count > 0 {
		h.Min = r.Int63n(100)
		h.Max = h.Min + r.Int63n(1000)
		h.Sum = h.Count * (h.Min + h.Max) / 2
		h.CASRetries = r.Int63n(10)
	}
	// Unset, unsampled and sampled periods, so the algebra covers
	// rescaling too.
	h.Every = []int64{0, 1, SampleEvery}[r.Intn(3)]
	return h
}

func checkMergeProperties(t *testing.T, a, b, c *Snapshot) {
	t.Helper()
	// Commutativity: a+b == b+a.
	ab, ba := Merge(a, b), Merge(b, a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("Merge not commutative:\n a+b=%+v\n b+a=%+v", ab, ba)
	}
	// Associativity: (a+b)+c == a+(b+c).
	left, right := Merge(ab, c), Merge(a, Merge(b, c))
	if !reflect.DeepEqual(left, right) {
		t.Fatalf("Merge not associative:\n (a+b)+c=%+v\n a+(b+c)=%+v", left, right)
	}
	// Identity: canonical a merged with empty is unchanged (both ways).
	ca := canon(a)
	if got := Merge(ca, &Snapshot{}); !reflect.DeepEqual(got, ca) {
		t.Fatalf("empty is not right identity:\n got=%+v\n want=%+v", got, ca)
	}
	if got := Merge(&Snapshot{}, ca); !reflect.DeepEqual(got, ca) {
		t.Fatalf("empty is not left identity:\n got=%+v\n want=%+v", got, ca)
	}
	// nil behaves as the identity too.
	if got := Merge(ca, nil); !reflect.DeepEqual(got, ca) {
		t.Fatalf("nil is not identity: got=%+v want=%+v", got, ca)
	}
}

func TestMergeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		checkMergeProperties(t, genSnapshot(r), genSnapshot(r), genSnapshot(r))
	}
}

func TestMergeIdempotentCanonicalization(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		s := genSnapshot(r)
		c1 := canon(s)
		c2 := canon(c1)
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("canonicalization not idempotent:\n c1=%+v\n c2=%+v", c1, c2)
		}
	}
}

func TestMergeSumsAndWatermarks(t *testing.T) {
	a := &Snapshot{TakenUnixNano: 100, Groups: []GroupSnapshot{{
		Name: "adaptive", Kind: "adaptive", Origin: "w1",
		Counters: []Metric{{Name: "ops", Value: 10}},
		Hists: []HistMetric{{Name: "draw_ns", Hist: HistSnapshot{
			Count: 2, Sum: 30, Min: 10, Max: 20, Buckets: []int64{0, 0, 0, 0, 2},
		}}},
		Gates:  []GateSnapshot{{Gate: 0, Layer: 1, Tokens: 5}, {Gate: 1, Layer: 1, Tokens: 3}},
		Layers: []LayerSnapshot{{Layer: 1, Gates: 2, Tokens: 8, MaxGateTokens: 5}},
	}}}
	b := &Snapshot{TakenUnixNano: 200, Groups: []GroupSnapshot{{
		Name: "adaptive", Kind: "adaptive", Origin: "w2",
		Counters: []Metric{{Name: "ops", Value: 7}, {Name: "draws", Value: 1}},
		Hists: []HistMetric{{Name: "draw_ns", Hist: HistSnapshot{
			Count: 1, Sum: 5, Min: 5, Max: 5, Buckets: []int64{0, 0, 1},
		}}},
		Gates:  []GateSnapshot{{Gate: 0, Layer: 1, Tokens: 2}, {Gate: 1, Layer: 1, Tokens: 6}},
		Layers: []LayerSnapshot{{Layer: 1, Gates: 2, Tokens: 8, MaxGateTokens: 6}},
	}}}
	m := Merge(a, b)
	if m.TakenUnixNano != 200 {
		t.Fatalf("TakenUnixNano = %d, want 200 (max)", m.TakenUnixNano)
	}
	g := m.Group("adaptive")
	if g == nil {
		t.Fatal("merged snapshot lost the adaptive group")
	}
	if g.Origin != "w1,w2" {
		t.Fatalf("Origin = %q, want union w1,w2", g.Origin)
	}
	if g.Kind != "adaptive" {
		t.Fatalf("Kind = %q, want adaptive", g.Kind)
	}
	wantCounters := []Metric{{Name: "draws", Value: 1}, {Name: "ops", Value: 17}}
	if !reflect.DeepEqual(g.Counters, wantCounters) {
		t.Fatalf("Counters = %+v, want %+v", g.Counters, wantCounters)
	}
	h := g.Hists[0].Hist
	if h.Count != 3 || h.Sum != 35 || h.Min != 5 || h.Max != 20 {
		t.Fatalf("hist merge wrong: %+v", h)
	}
	wantBuckets := []int64{0, 0, 1, 0, 2}
	if !reflect.DeepEqual(h.Buckets, wantBuckets) {
		t.Fatalf("hist buckets = %v, want %v", h.Buckets, wantBuckets)
	}
	// Per-gate token sums: gate0 = 5+2 = 7, gate1 = 3+6 = 9, so the
	// exact fleet busiest-gate figure is 9 — not max(5,6)=6 of the
	// per-worker figures. This is the recompute-from-merged-gates rule.
	if g.Gates[0].Tokens != 7 || g.Gates[1].Tokens != 9 {
		t.Fatalf("gate sums wrong: %+v", g.Gates)
	}
	l := g.Layers[0]
	if l.Tokens != 16 || l.MaxGateTokens != 9 {
		t.Fatalf("layer merge wrong (want tokens=16, maxGate=9 recomputed): %+v", l)
	}
}

// TestMergeEqualPeriods: sampled histograms of one period add sample
// for sample and keep the period, exactly as one shared sampled
// histogram would have recorded them.
func TestMergeEqualPeriods(t *testing.T) {
	a, b, ref := NewSampledHist(), NewSampledHist(), NewSampledHist()
	for i, v := range []int64{3, 100, 7, 4000, 0} {
		h := a
		if i%2 == 1 {
			h = b
		}
		h.Observe(v)
		ref.Observe(v)
	}
	got := mergeHists(a.Snapshot(), b.Snapshot())
	want := ref.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("equal-period merge:\n got=%+v\nwant=%+v", got, want)
	}
	if got.Every != SampleEvery {
		t.Fatalf("merged period %d, want %d", got.Every, SampleEvery)
	}
}

// TestMergeMixedPeriods: a sampled and an unsampled histogram are not
// added as if alike. The result takes the finer period and the sampled
// side's samples count SampleEvery times each, so counts, sums and
// buckets all estimate the same events; watermarks merge unscaled.
func TestMergeMixedPeriods(t *testing.T) {
	sampled := HistSnapshot{Count: 2, Sum: 30, Min: 10, Max: 20, Buckets: []int64{0, 0, 0, 0, 1, 1}, Every: SampleEvery}
	full := HistSnapshot{Count: 3, Sum: 6, Min: 1, Max: 3, Buckets: []int64{0, 1, 2}, Every: 1}
	want := HistSnapshot{
		Count: 2*SampleEvery + 3, Sum: 30*SampleEvery + 6, Min: 1, Max: 20,
		Buckets: []int64{0, 1, 2, 0, SampleEvery, SampleEvery}, Every: 1,
	}
	for _, pair := range [][2]HistSnapshot{{sampled, full}, {full, sampled}} {
		if got := mergeHists(pair[0], pair[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("mixed-period merge:\n got=%+v\nwant=%+v", got, want)
		}
	}
	// An unset period reads as 1, so it rescales the same way.
	full.Every = 0
	if got := mergeHists(sampled, full); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge with an unset period:\n got=%+v\nwant=%+v", got, want)
	}
}

// mergeHists merges two histograms through Merge, as one group's
// same-named histogram.
func mergeHists(a, b HistSnapshot) HistSnapshot {
	wrap := func(h HistSnapshot) *Snapshot {
		return &Snapshot{Groups: []GroupSnapshot{{Name: "g", Hists: []HistMetric{{Name: "h", Hist: h}}}}}
	}
	return Merge(wrap(a), wrap(b)).Groups[0].Hists[0].Hist
}

func TestMergeHistDifferential(t *testing.T) {
	// N workers observe into private registries; merging their
	// snapshots must preserve total count, sum, bucket sums, and the
	// global min/max — the same totals one shared histogram would show.
	const workers = 5
	r := rand.New(rand.NewSource(11))
	ref := NewHist()
	var snaps []*Snapshot
	for w := 0; w < workers; w++ {
		reg := NewRegistry()
		h := NewHist()
		reg.Register("lane", histSource{h: h})
		for i := 0; i < 500; i++ {
			v := r.Int63n(1 << uint(r.Intn(20)))
			h.Observe(v)
			ref.Observe(v)
		}
		s := reg.Snapshot()
		s.TagOrigin("w" + string(rune('0'+w)))
		snaps = append(snaps, &s)
	}
	merged := MergeAll(snaps...)
	g := merged.Group("lane")
	if g == nil || len(g.Hists) != 1 {
		t.Fatalf("merged snapshot lost the lane hist: %+v", merged)
	}
	got := g.Hists[0].Hist
	want := ref.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("merged hist totals diverge from shared hist:\n got=%+v\n want=%+v", got, want)
	}
	if !reflect.DeepEqual(got.Buckets, want.Buckets) {
		t.Fatalf("merged buckets diverge:\n got=%v\n want=%v", got.Buckets, want.Buckets)
	}
	if g.Origin != "w0,w1,w2,w3,w4" {
		t.Fatalf("merged Origin = %q, want all workers", g.Origin)
	}
	// Quantiles computed over the merged buckets must stay in range.
	if q := got.Quantile(99); q < float64(got.Min) || q > float64(got.Max) {
		t.Fatalf("merged P99 %v outside [%d,%d]", q, got.Min, got.Max)
	}
}

// histSource adapts a bare Hist to the Source interface for tests.
type histSource struct{ h *Hist }

func (s histSource) GroupSnapshot() GroupSnapshot {
	return GroupSnapshot{Kind: "counter", Hists: []HistMetric{{Name: "ns", Hist: s.h.Snapshot()}}}
}

// sanitizeSnapshot clamps fuzz-mutated snapshots back into the space
// of snapshots a registry can actually produce: histogram counts are
// event counts and cannot be negative. (With negative counts the
// "only sampled inputs contribute watermarks" rule has no consistent
// reading, so the algebra is only claimed over valid snapshots.)
func sanitizeSnapshot(s *Snapshot) {
	for gi := range s.Groups {
		for hi := range s.Groups[gi].Hists {
			h := &s.Groups[gi].Hists[hi].Hist
			if h.Count < 0 {
				h.Count = 0
			}
		}
	}
}

func FuzzSnapshotMerge(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		a, _ := json.Marshal(genSnapshot(r))
		b, _ := json.Marshal(genSnapshot(r))
		c, _ := json.Marshal(genSnapshot(r))
		f.Add(a, b, c)
	}
	f.Add([]byte(`{}`), []byte(`{}`), []byte(`{}`))
	f.Fuzz(func(t *testing.T, da, db, dc []byte) {
		var a, b, c Snapshot
		if json.Unmarshal(da, &a) != nil || json.Unmarshal(db, &b) != nil || json.Unmarshal(dc, &c) != nil {
			t.Skip("not snapshot JSON")
		}
		sanitizeSnapshot(&a)
		sanitizeSnapshot(&b)
		sanitizeSnapshot(&c)
		checkMergeProperties(t, &a, &b, &c)
	})
}
