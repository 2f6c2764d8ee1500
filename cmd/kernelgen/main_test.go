package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"countnet/internal/optnet"
)

// TestGeneratedKernelsCurrent is the in-tree drift gate: every
// committed generated file in internal/runner must byte-match what
// Generate() produces from the current internal/optnet table. A table
// edit without `go generate ./internal/runner` (or `make generate`)
// fails here — inside plain `go test ./...`, not only in CI's
// generate-check step.
func TestGeneratedKernelsCurrent(t *testing.T) {
	files, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		path := filepath.Join("..", "..", "internal", "runner", f.Name)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.Src) {
			t.Errorf("%s is stale: regenerate with `go generate ./internal/runner` (or `make generate`)", path)
		}
	}
}

// TestGenerateDeterministic guards reproducibility of the generator
// itself — two runs must emit identical bytes.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate() is not deterministic")
	}
}

// generated returns the named file of Generate().
func generated(t *testing.T, name string) []byte {
	t.Helper()
	files, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Name == name {
			return f.Src
		}
	}
	t.Fatalf("%s is not generated", name)
	return nil
}

// optnetChain is the comparator sequence of optnet.For(w), layer by
// layer.
func optnetChain(w int) []optnet.Comparator {
	n, _ := optnet.For(w)
	var chain []optnet.Comparator
	for _, layer := range n.Layers {
		chain = append(chain, layer...)
	}
	return chain
}

// TestKernelsFollowOptnet parses the generated sources and pins that
// every scalar kernel ceN, portable lane kernel laneN and AVX-512 lane
// kernel laneNAVX512 runs exactly the comparators of optnet.For(N), in
// table order: no two shapes can sort by different networks.
func TestKernelsFollowOptnet(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "zkernels.go", generated(t, "zkernels.go"), 0)
	if err != nil {
		t.Fatal(err)
	}
	chains := make(map[string][]optnet.Comparator)
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			chains[fn.Name.Name] = chainOf(t, fn)
		}
	}
	asm := asmChains(t, string(generated(t, "zlanes_amd64.s")))
	for w := optnet.MinWidth; w <= optnet.MaxWidth; w++ {
		want := optnetChain(w)
		for _, name := range []string{fmt.Sprintf("ce%d", w), fmt.Sprintf("lane%d", w)} {
			got, ok := chains[name]
			if !ok {
				t.Errorf("%s is not generated", name)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s runs comparators %v, optnet width %d has %v", name, got, w, want)
			}
			delete(chains, name)
		}
		name := fmt.Sprintf("lane%dAVX512", w)
		halves, ok := asm[name]
		if !ok {
			t.Errorf("%s is not generated", name)
			continue
		}
		for h, got := range halves {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s runs comparators %v on half %d, optnet width %d has %v", name, got, h, w, want)
			}
		}
		delete(asm, name)
	}
	if len(chains) != 0 {
		t.Errorf("unexpected generated functions: %v", chains)
	}
	if len(asm) != 0 {
		t.Errorf("unexpected generated assembly functions: %v", asm)
	}
}

// TestAsmDeclsMatchTable pins that zlanes_amd64.go declares exactly
// the functions zlanes_amd64.s defines, one per table width.
func TestAsmDeclsMatchTable(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "zlanes_amd64.go", generated(t, "zlanes_amd64.go"), parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var decls []string
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			if fn.Body != nil || fn.Doc == nil || fn.Doc.List[len(fn.Doc.List)-1].Text != "//go:noescape" {
				t.Errorf("%s: want a body-less //go:noescape declaration", fn.Name.Name)
			}
			decls = append(decls, fn.Name.Name)
		}
	}
	var want []string
	for w := optnet.MinWidth; w <= optnet.MaxWidth; w++ {
		want = append(want, fmt.Sprintf("lane%dAVX512", w))
	}
	want = append(want, asmTransposes...)
	if !reflect.DeepEqual(decls, want) {
		t.Errorf("declared %v, want %v", decls, want)
	}
}

// chainOf lists the compare-exchanges `vA, vB = max(vA, vB), min(vA,
// vB)` of a generated kernel in source order, failing on any other
// shape of max/min assignment.
func chainOf(t *testing.T, fn *ast.FuncDecl) []optnet.Comparator {
	t.Helper()
	var chain []optnet.Comparator
	ast.Inspect(fn.Body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 2 {
			return true
		}
		src := types.ExprString(as.Lhs[0]) + ", " + types.ExprString(as.Lhs[1]) + " = " +
			types.ExprString(as.Rhs[0]) + ", " + types.ExprString(as.Rhs[1])
		var a, b int
		if _, err := fmt.Sscanf(types.ExprString(as.Lhs[0])+" "+types.ExprString(as.Lhs[1]), "v%d v%d", &a, &b); err != nil {
			t.Fatalf("%s: unexpected assignment %s", fn.Name.Name, src)
		}
		if want := fmt.Sprintf("v%d, v%d = max(v%d, v%d), min(v%d, v%d)", a, b, a, b, a, b); src != want {
			t.Fatalf("%s: %s is not a compare-exchange", fn.Name.Name, src)
		}
		chain = append(chain, optnet.Comparator{A: a, B: b})
		return true
	})
	return chain
}

// asmSlot is what a ZMM register holds: 8 lanes, half h, of the gate's
// k-th wire.
type asmSlot struct{ k, h int }

// asmChains runs every TEXT block of the generated assembly
// symbolically, tracking which gate wire and which 8-lane half each
// ZMM register holds through the register renaming, and returns each
// kernel's compare-exchanges per half: VPMINSQ x, y, t followed by
// VPMAXSQ x, y, a with a ∈ {x, y} sorts the wire in a (the maximum)
// before the other, which t then holds. It fails on a load or store
// whose address does not follow the wire list, a compare-exchange of
// two halves, a minimum written over a live register, a store of the
// wrong register, a wire half that is never stored, a missing
// VZEROUPPER or a stride other than 4N bytes.
func asmChains(t *testing.T, src string) map[string][][]optnet.Comparator {
	t.Helper()
	out := make(map[string][][]optnet.Comparator)
	var (
		name   string
		width  int
		gp     map[string]int
		zmm    map[string]asmSlot
		stored map[asmSlot]bool
		chains [][]optnet.Comparator
		minOp  []string
		vzero  bool
	)
	fail := func(line, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %q: %s", name, line, fmt.Sprintf(format, args...))
	}
	// mem parses "off(DI)(R*1)" into the wire slot it addresses.
	mem := func(line, op string) asmSlot {
		i := strings.Index(op, "(")
		if i < 0 || !strings.HasPrefix(op[i:], "(DI)(") || !strings.HasSuffix(op, "*1)") {
			fail(line, "not a row address")
		}
		off := 0
		if i > 0 {
			if _, err := fmt.Sscan(op[:i], &off); err != nil {
				fail(line, "displacement: %v", err)
			}
		}
		reg := strings.TrimSuffix(op[i+len("(DI)("):], "*1)")
		k, ok := gp[reg]
		if !ok {
			fail(line, "%s holds no shifted wire index", reg)
		}
		if off != 0 && off != 64 {
			fail(line, "displacement %d is not a row half", off)
		}
		return asmSlot{k, off / 64}
	}
	finish := func() {
		if name == "" {
			return
		}
		if len(stored) != 2*width {
			t.Errorf("%s stores %d wire halves, want %d", name, len(stored), 2*width)
		}
		if !vzero {
			t.Errorf("%s returns without VZEROUPPER", name)
		}
		out[name] = chains
	}
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, "#") || strings.HasSuffix(line, ":") {
			continue
		}
		fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
		op, args := fields[0], fields[1:]
		if name == "" && op != "TEXT" {
			continue
		}
		if op == "TEXT" {
			finish()
			name = strings.TrimSuffix(strings.TrimPrefix(args[0], "·"), "(SB)")
			if slices.Contains(asmTransposes, name) {
				name = "" // pinned by TestTransposesAreTransposes
				continue
			}
			if _, err := fmt.Sscanf(name, "lane%dAVX512", &width); err != nil {
				fail(line, "unexpected function")
			}
			gp, zmm, stored = map[string]int{}, map[string]asmSlot{}, map[asmSlot]bool{}
			chains, minOp, vzero = make([][]optnet.Comparator, 2), nil, false
			continue
		}
		if minOp != nil && op != "VPMAXSQ" {
			fail(line, "VPMINSQ without its VPMAXSQ")
		}
		switch op {
		case "MOVL":
			var off int
			if _, err := fmt.Sscanf(args[0], "%d(SI)", &off); err != nil || off%4 != 0 || off/4 >= width {
				fail(line, "not a wire index load")
			}
			gp[args[1]] = -1 - off/4 // not yet shifted to a row offset
		case "SHLQ":
			k, ok := gp[args[1]]
			if args[0] != "$7" || !ok || k >= 0 {
				fail(line, "not a wire index to row offset shift")
			}
			gp[args[1]] = -1 - k
		case "VMOVDQU64":
			if strings.HasPrefix(args[0], "Z") {
				s := mem(line, args[1])
				if got, ok := zmm[args[0]]; !ok || got != s {
					fail(line, "stores %v (live: %v), want wire %d half %d", got, ok, s.k, s.h)
				}
				delete(zmm, args[0])
				stored[s] = true
			} else {
				if _, live := zmm[args[1]]; live {
					fail(line, "load over a live register")
				}
				zmm[args[1]] = mem(line, args[0])
			}
		case "VPMINSQ":
			if _, live := zmm[args[2]]; live {
				fail(line, "minimum written over a live register")
			}
			minOp = args
		case "VPMAXSQ":
			x, y, a := args[0], args[1], args[2]
			if minOp == nil || minOp[0] != x || minOp[1] != y || (a != x && a != y) {
				fail(line, "not the VPMAXSQ of the preceding VPMINSQ")
			}
			lo := x
			if a == x {
				lo = y
			}
			sa, oka := zmm[a]
			sb, okb := zmm[lo]
			if !oka || !okb || sa.h != sb.h {
				fail(line, "compare-exchange of %v and %v", sa, sb)
			}
			chains[sa.h] = append(chains[sa.h], optnet.Comparator{A: sa.k, B: sb.k})
			delete(zmm, lo)
			zmm[minOp[2]] = sb
			minOp = nil
		case "ADDQ":
			if args[0] != fmt.Sprintf("$%d", 4*width) || args[1] != "SI" {
				fail(line, "gate stride is not %d bytes", 4*width)
			}
		case "VZEROUPPER":
			vzero = true
		case "MOVQ", "TESTQ", "JLE", "DECQ", "JNZ", "RET":
		default:
			fail(line, "unexpected instruction")
		}
	}
	finish()
	return out
}

// asmTransposes are the tile transposes of the generated assembly.
var asmTransposes = []string{"transposeInAVX512", "transposeOutAVX512"}

// tileElem is a value of an 8×8 tile: column c of the r-th register
// loaded.
type tileElem struct{ r, c int }

// TestTransposesAreTransposes runs the tile body of each generated
// transpose symbolically and checks that it transposes: the register
// stored to destination d holds, in qword l, qword d of the register
// loaded from source l. The transpose in loads the 8 values of batch i
// (its slice header at 24i(SI), the chunk at CX) and stores row j of
// the chunk (at 128j(R8)); the transpose out loads the row half of
// output position k (the wire at 4k(R10), shifted to a row offset) and
// stores batch i's chunk. The shuffles follow the Intel definitions:
// VPUNPCKLQDQ and VPUNPCKHQDQ interleave the low or high qwords of each
// 128-bit lane of their sources, and VSHUFI64X2 takes its two low lanes
// from its second register operand and its two high lanes from its
// first (Go operand order), each picked by two bits of the immediate. The test also pins the loop
// strides: 8 values (64 bytes) per chunk in a batch, 8 rows or 8 out
// entries per chunk, 8 slice headers and one 8-lane row half per
// group.
func TestTransposesAreTransposes(t *testing.T) {
	src := string(generated(t, "zlanes_amd64.s"))
	want := map[string]struct {
		load, store string
		steps       []string
	}{
		"transposeInAVX512":  {"batch", "row", []string{"$64 CX", "$1024 R8", "$192 SI", "$64 DI"}},
		"transposeOutAVX512": {"out", "batch", []string{"$64 CX", "$32 R10", "$192 SI", "$64 DI"}},
	}
	seen := 0
	for _, text := range strings.Split(src, "\nTEXT ")[1:] {
		name := strings.TrimPrefix(text[:strings.Index(text, "(SB)")], "·")
		spec, ok := want[name]
		if !ok {
			continue
		}
		seen++
		type gpVal struct {
			kind string // "batch": slice data of batch i; "out": out entry i; "row": its row offset
			i    int
		}
		gp := map[string]gpVal{}
		zmm := map[string][tile]tileElem{}
		loaded, stored := map[int]bool{}, map[int]bool{}
		var steps []string
		vzero := false
		fail := func(line, format string, args ...any) {
			t.Helper()
			t.Fatalf("%s: %q: %s", name, line, fmt.Sprintf(format, args...))
		}
		// addr resolves a memory operand to what it addresses: a
		// batch's chunk, a row of the chunk, or the row half of an
		// output position.
		addr := func(line, op string) (string, int) {
			var off int
			switch {
			case strings.HasSuffix(op, "(CX*1)"):
				v := gp[strings.TrimSuffix(strings.TrimPrefix(op, "("), ")(CX*1)")]
				if v.kind != "batch" {
					fail(line, "not a batch's values")
				}
				return "batch", v.i
			case strings.HasPrefix(op, "(DI)("):
				v := gp[strings.TrimSuffix(strings.TrimPrefix(op, "(DI)("), "*1)")]
				if v.kind != "row" {
					fail(line, "not a row offset")
				}
				return "out", v.i
			case strings.HasSuffix(op, "(R8)"):
				if d := strings.TrimSuffix(op, "(R8)"); d != "" {
					if _, err := fmt.Sscan(d, &off); err != nil {
						fail(line, "displacement: %v", err)
					}
				}
				if off%rowBytes != 0 || off/rowBytes >= tile {
					fail(line, "not a row of the chunk")
				}
				return "row", off / rowBytes
			}
			fail(line, "unexpected address")
			return "", 0
		}
		body := text[strings.Index(text, "\nchunk:"):]
		for _, line := range strings.Split(body, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "//") || strings.HasSuffix(line, ":") {
				continue
			}
			fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
			op, args := fields[0], fields[1:]
			switch op {
			case "MOVQ":
				var off int
				if _, err := fmt.Sscanf(strings.TrimSuffix(args[0], "(SI)"), "%d", &off); err != nil && args[0] != "(SI)" {
					fail(line, "not a slice header load")
				}
				if off%headerBytes != 0 || off/headerBytes >= tile {
					fail(line, "not one of the group's slice headers")
				}
				gp[args[1]] = gpVal{"batch", off / headerBytes}
			case "MOVL":
				var off int
				if _, err := fmt.Sscanf(strings.TrimSuffix(args[0], "(R10)"), "%d", &off); err != nil && args[0] != "(R10)" {
					fail(line, "not an out entry load")
				}
				if off%4 != 0 || off/4 >= tile {
					fail(line, "not one of the chunk's out entries")
				}
				gp[args[1]] = gpVal{"out", off / 4}
			case "SHLQ":
				if v := gp[args[1]]; args[0] != "$7" || v.kind != "out" {
					fail(line, "not an out entry to row offset shift")
				}
				gp[args[1]] = gpVal{"row", gp[args[1]].i}
			case "VMOVDQU64":
				if strings.HasPrefix(args[0], "Z") {
					kind, d := addr(line, args[1])
					if kind != spec.store {
						fail(line, "stores to a %s, want a %s", kind, spec.store)
					}
					got, ok := zmm[args[0]]
					if !ok {
						fail(line, "stores a register that holds nothing")
					}
					for l, e := range got {
						if e != (tileElem{l, d}) {
							fail(line, "qword %d holds column %d of source %d, want column %d of source %d", l, e.c, e.r, d, l)
						}
					}
					if stored[d] {
						fail(line, "stores destination %d twice", d)
					}
					stored[d] = true
				} else {
					kind, s := addr(line, args[0])
					if kind != spec.load {
						fail(line, "loads from a %s, want a %s", kind, spec.load)
					}
					if loaded[s] {
						fail(line, "loads source %d twice", s)
					}
					loaded[s] = true
					var v [tile]tileElem
					for c := range v {
						v[c] = tileElem{s, c}
					}
					zmm[args[1]] = v
				}
			case "VPUNPCKLQDQ", "VPUNPCKHQDQ", "VSHUFI64X2":
				var imm int
				if op == "VSHUFI64X2" {
					if _, err := fmt.Sscanf(args[0], "$0x%x", &imm); err != nil {
						fail(line, "immediate: %v", err)
					}
					args = args[1:]
				}
				src2, ok2 := zmm[args[0]]
				src1, ok1 := zmm[args[1]]
				if !ok1 || !ok2 {
					fail(line, "shuffles a register that holds nothing")
				}
				var dst [tile]tileElem
				for lane := range tile / 2 { // 128-bit lanes of two qwords
					switch op {
					case "VPUNPCKLQDQ":
						dst[2*lane], dst[2*lane+1] = src1[2*lane], src2[2*lane]
					case "VPUNPCKHQDQ":
						dst[2*lane], dst[2*lane+1] = src1[2*lane+1], src2[2*lane+1]
					default:
						from, sel := src1, imm>>(2*lane)&3
						if lane >= 2 {
							from = src2
						}
						dst[2*lane], dst[2*lane+1] = from[2*sel], from[2*sel+1]
					}
				}
				zmm[args[2]] = dst
			case "ADDQ":
				steps = append(steps, args[0]+" "+args[1])
			case "VZEROUPPER":
				vzero = true
			case "DECQ", "JNZ", "RET":
			default:
				fail(line, "unexpected instruction")
			}
		}
		if len(loaded) != tile || len(stored) != tile {
			t.Errorf("%s loads %d sources and stores %d destinations, want %d each", name, len(loaded), len(stored), tile)
		}
		if !reflect.DeepEqual(steps, spec.steps) {
			t.Errorf("%s steps %v, want %v", name, steps, spec.steps)
		}
		if !vzero {
			t.Errorf("%s returns without VZEROUPPER", name)
		}
	}
	if seen != len(want) {
		t.Errorf("found %d of the %d transposes", seen, len(want))
	}
}
