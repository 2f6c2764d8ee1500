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
// therefore record the gates one occurrence of a (construction,
// parameters) pair appended, translated to positions within its input,
// and replay that template through a wire translation for every
// further occurrence instead of deriving it again.
//
// A replay still appends every gate, so it pays back its record only
// where deriving costs far more than placing the gates. That is so for
// R(p,q), which copies nine matrix regions and runs up to nine
// two-mergers and a K network to place a few dozen gates, and so for
// every construction that contains one (the C, M and S shapes of
// family L). Everything else derives about as fast as it replays.
// With every template recorded, K(2,...,2) of width 1024 built in
// 8.0 ms against 5.6 ms with none, and the set-up of a counter on
// L(4,4) took 38 µs against 30 µs, while L(3,4,5,6) built in 0.86 ms
// against 1.18 ms (medians of six runs on a 2-vCPU Xeon, Go 1.24).
// So a construction is recorded when its
// derivation met an R — derived or replayed — and does not span every
// wire of the build, since nothing would be left to replay it. R(p,q)
// marks itself dear when it calls cached; nothing else is recorded,
// and a build that records nothing never makes the memo's map or
// stamp arrays.
//
// The cache is build-scoped: created in the public entry points,
// threaded through the recursion via buildEnv, and dropped when the
// network is built. Replay is gate-for-gate identical to derivation
// (same Add order, same wires, same labels), so golden networks are
// bit-identical with and without the cache
// (TestMemoMatchesDerivation).

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

// buildEnv threads one build's builder, configuration and scratch
// through the construction recursion.
type buildEnv struct {
	b   *network.Builder
	cfg Config
	// memoOK is false for an unknown user base function, whose
	// positional determinism we cannot vouch for: its builds neither
	// record nor replay.
	memoOK bool
	sh     *envShared
	// baseKind routes cfg.Base calls to memoizable implementations:
	// known functions are dispatched directly so their sub-structure
	// lands in the cache too.
	baseKind int
}

// envShared holds build-wide state shared with the family-K view: the
// scratch every construction draws its temporaries from, and the memo.
// The memo's map and its wire-stamp arrays are made on the first
// record, so a build that records nothing allocates neither.
type envShared struct {
	// ints backs every int slice a build makes and drops: inputs,
	// block and matrix orderings, outputs. Tens of thousands of
	// short-lived slices per large build collapse into a few chunk
	// allocations. Exhausted chunks are abandoned, not grown, and
	// nothing carved from a chunk is ever handed out again, so a slice
	// stays valid for the whole build.
	ints []int
	// keyBuf holds the key under construction: keys are built in place
	// and looked up without allocating a string.
	keyBuf []byte
	// wires is the per-gate scratch replay translates into.
	wires []int
	// kEnv is the family-K view (see kView), made on first use.
	kEnv *buildEnv

	memo map[string]*template
	// dear counts the dear constructions met so far.
	dear int
	// invPos/invGen map a wire to its position in the input being
	// recorded: a width-sized array with generation marks, replacing a
	// map allocation per recorded template.
	invPos []int32
	invGen []uint32
	gen    uint32
	// labels interns the gate labels (see label), made on first use.
	labels   map[string]string
	labelBuf []byte
	// bufs is the first backing of keyBuf and labelBuf.
	bufs [128]byte
}

// label returns the concatenation of parts, interned: every
// construction composes its gates' labels here, and a build has few
// distinct ones (42 among the 6,362 gates of L(3,4,5,6)), so gates
// with the same label share one string. The concatenation is built in
// a buffer of its own and allocates only on the first occurrence of
// each label.
func (sh *envShared) label(parts ...string) string {
	k := sh.labelBuf[:0]
	for _, p := range parts {
		k = append(k, p...)
	}
	sh.labelBuf = k
	if s, ok := sh.labels[string(k)]; ok {
		return s
	}
	if sh.labels == nil {
		sh.labels = make(map[string]string)
	}
	s := string(k)
	sh.labels[s] = s
	return s
}

// ints carves an n-int slice out of the build's scratch. Callers write
// every element before they read it.
func (e *buildEnv) ints(n int) []int {
	sh := e.sh
	if cap(sh.ints)-len(sh.ints) < n {
		c := 2 * cap(sh.ints)
		if c < 1024 {
			c = 1024
		}
		if c > 1<<16 {
			c = 1 << 16
		}
		for c < n {
			c *= 2
		}
		sh.ints = make([]int, 0, c)
	}
	lo := len(sh.ints)
	sh.ints = sh.ints[:lo+n]
	return sh.ints[lo : lo+n : lo+n]
}

// concat returns x0 followed by x1 in build scratch.
func (e *buildEnv) concat(x0, x1 []int) []int {
	out := e.ints(len(x0) + len(x1))
	copy(out[copy(out, x0):], x1)
	return out
}

const (
	baseUnknown = iota
	baseBalancer
	baseRNet
	baseNone // zero Config: construction never calls the base
	// Optimal-sorter bases (optbase.go).
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
// known base functions and for base-free constructions; an
// unrecognized user base disables it.
func newEnv(b *network.Builder, cfg Config) *buildEnv {
	kind := baseKindOf(cfg.Base)
	sh := &envShared{}
	sh.keyBuf, sh.labelBuf = sh.bufs[:0:64], sh.bufs[64:64]
	return &buildEnv{b: b, cfg: cfg, memoOK: kind != baseUnknown, sh: sh, baseKind: kind}
}

// kView returns the build's family-K view: an env over the same
// builder and scratch with family K's configuration, in which R's
// regions build their K networks. Keys embed the configuration, so
// sharing the cache across configurations is sound.
func (e *buildEnv) kView() *buildEnv {
	if e.sh.kEnv == nil {
		e.sh.kEnv = &buildEnv{b: e.b, cfg: KConfig(), memoOK: e.memoOK, sh: e.sh, baseKind: baseBalancer}
	}
	return e.sh.kEnv
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
// flattened input `in`, or replays the construction's template when
// one is recorded. dear marks a construction whose derivation does
// far more work than placing its gates (R(p,q)); see the package note
// for the record rule. derive must be positional: its gates and
// output ordering may depend only on len(in) and the positions of its
// wires within in, plus whatever key encodes.
func (e *buildEnv) cached(key []byte, in []int, label string, dear bool, derive func(e *buildEnv, in []int, label string) []int) []int {
	if !e.memoOK {
		return derive(e, in, label)
	}
	sh := e.sh
	dear0 := sh.dear
	if dear {
		sh.dear++
	}
	if t := sh.memo[string(key)]; t != nil { // no-alloc map lookup
		return e.replay(t, in, label)
	}
	// Keep the key past derive, whose nested calls reuse the key buffer
	// that `key` points into; it becomes a string only if recorded.
	var kb [64]byte
	k := append(kb[:0], key...)
	g0 := e.b.GateCount()
	out := derive(e, in, label)
	if sh.dear == dear0 || len(in) == e.b.Width() {
		// Nothing dear inside: a replay would save little more than
		// it costs. Or it spans the build: nothing is left to replay
		// it.
		return out
	}
	// Recording is cheap: the derivation went straight into the real
	// builder, and its gates are translated to input-local positions
	// after the fact.
	if t := e.record(g0, in, out, label); t != nil {
		sh.memo[string(k)] = t
	}
	return out
}

// initMemo makes the memo's map, stamp arrays and label table.
func (sh *envShared) initMemo(width int) {
	if sh.memo == nil {
		sh.memo = make(map[string]*template)
		sh.invPos = make([]int32, width)
		sh.invGen = make([]uint32, width)
	}
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
	b, sh := e.b, e.sh
	sh.initMemo(b.Width())
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
	sh := e.sh
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
			t.lastLabels[i] = sh.label(label, t.gates[i].suffix)
		}
		t.lastPrefix = label
		t.hasLast = true
	}
	for gi := range t.gates {
		g := &t.gates[gi]
		if cap(sh.wires) < len(g.wires) {
			sh.wires = make([]int, 2*len(g.wires))
		}
		w := sh.wires[:len(g.wires)]
		for i, li := range g.wires {
			w[i] = in[li]
		}
		e.b.AddValidated(w, t.lastLabels[gi])
	}
	out := e.ints(len(t.out))
	for i, li := range t.out {
		out[i] = in[li]
	}
	return out
}

// key builders ------------------------------------------------------------
//
// Keys are assembled in the build-wide key buffer and passed to cached
// as a byte slice: lookups convert with the compiler's no-alloc
// map[string(b)] form, and only a recorded shape pays for a real
// string. Tagged keys end in the parts of the configuration that shape
// construction (base kind and staircase variant). With memoization
// disabled the key is irrelevant and nil is returned.

func (e *buildEnv) keyFactors(kind string, factors []int, tagged bool) []byte {
	if !e.memoOK {
		return nil
	}
	k := append(e.sh.keyBuf[:0], kind...)
	for _, f := range factors {
		k = append(k, '|')
		k = strconv.AppendInt(k, int64(f), 10)
	}
	return e.endKey(k, tagged)
}

func (e *buildEnv) key3(kind string, a, b, c int, tagged bool) []byte {
	if !e.memoOK {
		return nil
	}
	k := append(e.sh.keyBuf[:0], kind...)
	k = append(k, '|')
	k = strconv.AppendInt(k, int64(a), 10)
	k = append(k, '|')
	k = strconv.AppendInt(k, int64(b), 10)
	k = append(k, '|')
	k = strconv.AppendInt(k, int64(c), 10)
	return e.endKey(k, tagged)
}

func (e *buildEnv) endKey(k []byte, tagged bool) []byte {
	if tagged {
		k = append(k, "|b"...)
		k = strconv.AppendInt(k, int64(e.baseKind), 10)
		k = append(k, 's')
		k = strconv.AppendInt(k, int64(e.cfg.Staircase), 10)
	}
	e.sh.keyBuf = k
	return k
}
