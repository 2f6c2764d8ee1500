package core

import (
	"reflect"
	"strconv"
	"strings"

	"countnet/internal/network"
)

// The constructions are heavily self-similar: C(p0..pn-1) instantiates
// p(n-1) identical copies of C(p0..pn-2), every merger instantiates
// p(n-2) identical sub-mergers, and every staircase row repeats the
// same base network. All of them are *positional*: the gates a call
// appends depend only on the construction parameters and the order of
// its input wires, never on the wire numbers themselves. A build can
// therefore derive each distinct (construction, parameters) pair once —
// over the identity input 0..m-1, into a throwaway builder — and replay
// the recorded gate list through a wire translation for every further
// occurrence, instead of re-deriving the matrix arithmetic, slicing and
// recursion each time.
//
// The cache is build-scoped: created in the public entry points,
// threaded through the recursion via buildEnv, and dropped when the
// network is built. Replay is gate-for-gate identical to derivation
// (same Add order, same wires, same labels), so golden networks are
// bit-identical with and without the cache.

// tmplGate is one recorded gate: wire positions local to the
// construction's flattened input, plus the label suffix.
type tmplGate struct {
	wires  []int
	suffix string
}

// template is a recorded construction over local input positions
// 0..len-1. lastPrefix/lastLabels cache the per-gate label strings of
// the most recent replay prefix: within one build almost every replay
// of a template shares the same prefix (the top-level network name), so
// the labels are composed once per template, not per replay, and
// interned in envShared across templates.
type template struct {
	gates []tmplGate
	out   []int // output ordering in local positions

	lastPrefix string
	lastLabels []string
	hasLast    bool
}

// buildEnv threads one build's builder, configuration and memo cache
// through the construction recursion.
type buildEnv struct {
	b   *network.Builder
	cfg Config
	// memo caches templates by construction key; nil disables
	// memoization (unknown user base functions, whose positional
	// determinism we cannot vouch for).
	memo    map[string]*template
	shared  *envShared
	scratch []int
	tag     string // precomputed cfgTag
	// baseKind routes cfg.Base calls to memoizable implementations:
	// known functions are dispatched directly so their sub-structure
	// lands in the cache too.
	baseKind int
}

// envShared holds build-wide scratch reused across withConfig views:
// the key buffer (keys are built in place and looked up without
// allocating a string) and the wire→local-position stamp table used by
// record (a width-sized array with generation marks, replacing a map
// allocation per recorded template).
type envShared struct {
	keyBuf []byte
	invPos []int32
	invGen []uint32
	gen    uint32
	// outArena backs the output orderings produced by replay: tens of
	// thousands of short-lived slices per build collapse into a few
	// chunk allocations. Exhausted chunks are abandoned, not grown.
	outArena []int
	// labels interns the gate labels replay composes: the replayed
	// templates of L(3,4,5,6) label 1,352 gates, with 42 distinct
	// labels among all its gates, so gates with the same label share
	// one string.
	labels map[string]string
}

// label returns prefix+suffix, interned. The concatenation is built in
// the key buffer, which no caller holds across a replay, and allocates
// only on the first occurrence of each label.
func (sh *envShared) label(prefix, suffix string) string {
	k := append(append(sh.keyBuf[:0], prefix...), suffix...)
	sh.keyBuf = k
	if s, ok := sh.labels[string(k)]; ok {
		return s
	}
	s := string(k)
	sh.labels[s] = s
	return s
}

// allocOut carves an n-int slice out of the arena.
func (sh *envShared) allocOut(n int) []int {
	if cap(sh.outArena)-len(sh.outArena) < n {
		c := 2 * cap(sh.outArena)
		if c < 1024 {
			c = 1024
		}
		if c > 1<<16 {
			c = 1 << 16
		}
		for c < n {
			c *= 2
		}
		sh.outArena = make([]int, 0, c)
	}
	lo := len(sh.outArena)
	sh.outArena = sh.outArena[:lo+n]
	return sh.outArena[lo : lo+n : lo+n]
}

const (
	baseUnknown = iota
	baseBalancer
	baseRNet
	baseNone // zero Config: construction never calls the base
	// Optimal-sorter bases (optbase.go). Appended after baseNone so
	// the cfgTag strings of the original kinds stay stable.
	baseOptBalancer
	baseOptRNet
)

func funcPtr(f BaseFunc) uintptr {
	if f == nil {
		return 0
	}
	return reflect.ValueOf(f).Pointer()
}

func baseKindOf(f BaseFunc) int {
	switch funcPtr(f) {
	case 0:
		return baseNone
	case funcPtr(BaseFunc(BalancerBase)):
		return baseBalancer
	case funcPtr(BaseFunc(RBase)):
		return baseRNet
	case funcPtr(BaseFunc(OptBalancerBase)):
		return baseOptBalancer
	case funcPtr(BaseFunc(OptRBase)):
		return baseOptRNet
	default:
		return baseUnknown
	}
}

// newEnv prepares a build environment. Memoization is enabled for the
// known base functions (BalancerBase, RBase) and for base-free
// constructions; an unrecognized user base disables it.
func newEnv(b *network.Builder, cfg Config) *buildEnv {
	e := &buildEnv{b: b, cfg: cfg, baseKind: baseKindOf(cfg.Base)}
	e.tag = cfgTag(e.baseKind, cfg)
	if e.baseKind != baseUnknown {
		e.memo = make(map[string]*template)
		e.shared = &envShared{
			invPos: make([]int32, b.Width()),
			invGen: make([]uint32, b.Width()),
			labels: make(map[string]string),
		}
	}
	return e
}

// withConfig returns an env over the same builder and cache but a
// different configuration (buildR nests family-K sub-networks inside
// any outer family). Keys embed the configuration, so sharing the
// cache across configs is sound; an unknown base still disables it.
func (e *buildEnv) withConfig(cfg Config) *buildEnv {
	ne := &buildEnv{b: e.b, cfg: cfg, memo: e.memo, shared: e.shared, baseKind: baseKindOf(cfg.Base)}
	ne.tag = cfgTag(ne.baseKind, cfg)
	if ne.baseKind == baseUnknown {
		ne.memo = nil
		ne.shared = nil
	}
	return ne
}

// cfgTag keys the parts of the configuration that shape construction.
func cfgTag(baseKind int, cfg Config) string {
	return "b" + strconv.Itoa(baseKind) + "s" + strconv.Itoa(int(cfg.Staircase))
}

// callBase builds the base network C(p,q) over in, routing the known
// base functions through the env so their internals are memoized.
func (e *buildEnv) callBase(in []int, p, q int, label string) []int {
	switch e.baseKind {
	case baseBalancer:
		e.b.Add(in, label)
		return in
	case baseRNet:
		return e.buildR(in, p, q, label)
	case baseOptBalancer:
		return e.optBalancerBase(in, p, q, label)
	case baseOptRNet:
		return e.optRBase(in, p, q, label)
	default:
		return e.cfg.Base(e.b, in, p, q, label)
	}
}

// cached runs derive for the construction identified by key over the
// flattened input `in`, recording it into a template on first use and
// replaying the template afterwards. Recording is free: the first
// occurrence derives straight into the real builder and the gates it
// appended are translated to input-local positions after the fact.
// derive must be positional: its gates and output ordering may depend
// only on len(in) and the positions of its wires within in, plus
// whatever key encodes.
func (e *buildEnv) cached(key []byte, in []int, label string, derive func(e *buildEnv, in []int, label string) []int) []int {
	if e.memo == nil {
		return derive(e, in, label)
	}
	t, seen := e.memo[string(key)] // no-alloc map lookup
	if t != nil {
		return e.replay(t, in, label)
	}
	// Materialize the key before derive: nested cached calls reuse the
	// shared key buffer that `key` points into.
	k := string(key)
	g0 := e.b.GateCount()
	out := derive(e, in, label)
	// Full-width constructions are usually one-shot (the top-level
	// network and its outermost merger); recording them would burn time
	// and memory on templates that never replay. A nil entry marks the
	// first occurrence, so genuinely recurring full-width shapes (the
	// merge towers of R) are recorded from their second miss on.
	if seen || len(in) < e.b.Width() {
		if t := e.record(g0, in, out, label); t != nil {
			e.memo[k] = t
		}
	} else {
		e.memo[k] = nil
	}
	return out
}

// record translates gates [g0, b.GateCount()) and the output ordering
// into input-local positions. It returns nil — caching nothing — if a
// gate or output wire falls outside `in`, which no positional
// construction produces; the check keeps a misbehaving base function
// from corrupting the cache. The wire→position table is a build-wide
// generation-stamped array and all recorded wire slices share one
// backing array, so recording costs a handful of allocations however
// many gates it covers.
func (e *buildEnv) record(g0 int, in, out []int, label string) *template {
	b, sh := e.b, e.shared
	sh.gen++
	gen := sh.gen
	for i, w := range in {
		sh.invPos[w] = int32(i)
		sh.invGen[w] = gen
	}
	nGates := b.GateCount() - g0
	total := 0
	for gi := g0; gi < b.GateCount(); gi++ {
		wires, _ := b.GateAt(gi)
		total += len(wires)
	}
	backing := make([]int, 0, total)
	t := &template{gates: make([]tmplGate, 0, nGates), out: make([]int, len(out))}
	for gi := g0; gi < b.GateCount(); gi++ {
		wires, gl := b.GateAt(gi)
		lo := len(backing)
		for _, w := range wires {
			if sh.invGen[w] != gen {
				return nil
			}
			backing = append(backing, int(sh.invPos[w]))
		}
		if !strings.HasPrefix(gl, label) {
			return nil
		}
		t.gates = append(t.gates, tmplGate{wires: backing[lo:len(backing):len(backing)], suffix: gl[len(label):]})
	}
	for i, w := range out {
		if sh.invGen[w] != gen {
			return nil
		}
		t.out[i] = int(sh.invPos[w])
	}
	return t
}

// replay clones a recorded template onto the actual input wires. The
// gate list was validated by the builder when recorded, so the clone
// takes the builder's unchecked path.
func (e *buildEnv) replay(t *template, in []int, label string) []int {
	if !t.hasLast || t.lastPrefix != label {
		if t.lastLabels == nil {
			t.lastLabels = make([]string, len(t.gates))
		}
		for i := range t.gates {
			// Gates come in runs that share a suffix (a row, a layer
			// of one sub-network): reuse the label of the run.
			if i > 0 && t.gates[i].suffix == t.gates[i-1].suffix {
				t.lastLabels[i] = t.lastLabels[i-1]
				continue
			}
			t.lastLabels[i] = e.shared.label(label, t.gates[i].suffix)
		}
		t.lastPrefix = label
		t.hasLast = true
	}
	for gi := range t.gates {
		g := &t.gates[gi]
		if cap(e.scratch) < len(g.wires) {
			e.scratch = make([]int, 2*len(g.wires))
		}
		w := e.scratch[:len(g.wires)]
		for i, li := range g.wires {
			w[i] = in[li]
		}
		e.b.AddValidated(w, t.lastLabels[gi])
	}
	out := e.shared.allocOut(len(t.out))
	for i, li := range t.out {
		out[i] = in[li]
	}
	return out
}

// key builders ------------------------------------------------------------
//
// Keys are assembled in the build-wide key buffer and passed to cached
// as a byte slice: lookups convert with the compiler's no-alloc
// map[string(b)] form, and only a cache miss pays for a real string.
// With memoization disabled (nil shared scratch) the key is irrelevant
// and nil is returned.

func (e *buildEnv) keyFactors(kind string, factors []int, tagged bool) []byte {
	if e.shared == nil {
		return nil
	}
	k := append(e.shared.keyBuf[:0], kind...)
	for _, f := range factors {
		k = append(k, '|')
		k = strconv.AppendInt(k, int64(f), 10)
	}
	if tagged {
		k = append(k, '|')
		k = append(k, e.tag...)
	}
	e.shared.keyBuf = k
	return k
}

func (e *buildEnv) key3(kind string, a, b, c int, tagged bool) []byte {
	if e.shared == nil {
		return nil
	}
	k := append(e.shared.keyBuf[:0], kind...)
	k = append(k, '|')
	k = strconv.AppendInt(k, int64(a), 10)
	k = append(k, '|')
	k = strconv.AppendInt(k, int64(b), 10)
	k = append(k, '|')
	k = strconv.AppendInt(k, int64(c), 10)
	if tagged {
		k = append(k, '|')
		k = append(k, e.tag...)
	}
	e.shared.keyBuf = k
	return k
}
