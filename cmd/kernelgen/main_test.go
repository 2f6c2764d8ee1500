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
		if op == "TEXT" {
			finish()
			name = strings.TrimSuffix(strings.TrimPrefix(args[0], "·"), "(SB)")
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
