package core

import (
	"reflect"
	"strings"

	"countnet/internal/network"
)

// Family L's base network R(p,q) is the one construction whose
// derivation costs far more than placing its gates: it copies nine
// matrix regions and runs up to nine two-mergers and a K network to
// place a few dozen gates. It is also *positional*: the gates it
// appends depend only on p, q and the order of its input wires, never
// on the wire numbers themselves, and on no configuration either,
// since its K regions are built in the family-K view (kView) and never
// call Config.Base. A build therefore records the gates of the first
// R(p,q) it derives, translated to positions within its input, and
// replays that template through a wire translation for every further
// R(p,q) instead of deriving it again. An R that spans every wire of
// the build is not recorded, since nothing is left to replay it, so a
// build that meets no other R (a counter on L(4,4), any K) never makes
// the memo's map or stamp arrays.
//
// Only R is recorded because only R pays for it: a replay still
// appends every gate, and every other construction derives about as
// fast as it replays. With the memo off, L(2^8) built in 3.7 ms
// against 1.9 ms with it (medians on a 2-vCPU Xeon, Go 1.24).
//
// The cache is build-scoped: created in the public entry points,
// threaded through the recursion via buildEnv, and dropped when the
// network is built. Replay is gate-for-gate identical to derivation
// (same Add order, same wires, same labels), so golden networks are
// bit-identical with and without the cache
// (TestMemoMatchesDerivation).

// tmplGate is one recorded gate: wire positions local to R's input,
// plus the label suffix.
type tmplGate struct {
	wires  []int
	suffix string
}

// template is a recorded R(p,q) over local input positions
// 0..len-1. lastPrefix/lastLabels cache the per-gate label strings of
// the most recent replay prefix: most replays of a template share the
// prefix of the one before (a base slot's label, such as
// "L(3,4,5,6)/S.base"), so the labels are composed once per run of
// replays, not per replay, and interned in envShared across templates.
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
	// memoOK switches the memo; TestMemoMatchesDerivation turns it off
	// to build its reference.
	memoOK bool
	sh     *envShared
	// baseKind routes cfg.Base calls to the known implementations
	// directly, so family L's R calls share the build's memo.
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
	// wires is the per-gate scratch replay translates into.
	wires []int
	// kEnv is the family-K view (see kView), made on first use.
	kEnv *buildEnv

	// memo maps R's {p, q} to its template.
	memo map[[2]int]*template
	// invPos/invGen map a wire to its position in the input being
	// recorded: a width-sized array with generation marks, replacing a
	// map allocation per recorded template.
	invPos []int32
	invGen []uint32
	gen    uint32
	// labels interns the gate labels (see label), made on first use.
	labels   map[string]string
	labelBuf []byte
	// buf is the first backing of labelBuf.
	buf [64]byte
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

// intsPerWire sizes a build's first scratch chunk, in ints per wire;
// later chunks double. Builds use from 12 ints per wire (R, L(4,4)) to
// about 120 (L(2^8)), so no multiple fits all. Of 4 to 32, only 4 kept
// every BuildK, BuildL, BuildR and Setup benchmark within 7% of the
// bytes of a fixed 1,024-int first chunk; small builds, a counter's
// set-up among them, take up to 45% fewer.
const intsPerWire = 4

// ints carves an n-int slice out of the build's scratch. Callers write
// every element before they read it.
func (e *buildEnv) ints(n int) []int {
	sh := e.sh
	if cap(sh.ints)-len(sh.ints) < n {
		c := 2 * cap(sh.ints)
		if c == 0 {
			c = intsPerWire * e.b.Width()
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

// newEnv prepares a build environment with the memo on.
func newEnv(b *network.Builder, cfg Config) *buildEnv {
	sh := &envShared{}
	sh.labelBuf = sh.buf[:0]
	return &buildEnv{b: b, cfg: cfg, memoOK: true, sh: sh, baseKind: baseKindOf(cfg.Base)}
}

// kView returns the build's family-K view: an env over the same
// builder and scratch with family K's configuration, in which R's
// regions build their K networks.
func (e *buildEnv) kView() *buildEnv {
	if e.sh.kEnv == nil {
		e.sh.kEnv = &buildEnv{b: e.b, cfg: KConfig(), memoOK: e.memoOK, sh: e.sh, baseKind: baseBalancer}
	}
	return e.sh.kEnv
}

// callBase builds the base network C(p,q) over in, routing the known
// base functions through the env so their R calls share its memo.
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

// initMemo makes the memo's map and stamp arrays.
func (sh *envShared) initMemo(width int) {
	if sh.memo == nil {
		sh.memo = make(map[[2]int]*template)
		sh.invPos = make([]int32, width)
		sh.invGen = make([]uint32, width)
	}
}

// record translates gates [g0, b.GateCount()) and the output ordering
// into input-local positions. It returns nil — caching nothing — if a
// gate or output wire falls outside `in` or a gate label does not
// extend `label`, which no positional construction produces; the
// check keeps a construction that breaks the rule from corrupting the
// cache. The wire→position table is a build-wide
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
