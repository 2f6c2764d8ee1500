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
	"testing"

	"countnet/internal/optnet"
)

// TestGeneratedKernelsCurrent is the in-tree drift gate: the committed
// internal/runner/zkernels.go must byte-match what Generate() produces
// from the current internal/optnet table. A table edit without
// `go generate ./internal/runner` (or `make generate`) fails here —
// inside plain `go test ./...`, not only in CI's generate-check step.
func TestGeneratedKernelsCurrent(t *testing.T) {
	want, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "internal", "runner", "zkernels.go")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is stale: regenerate with `go generate ./internal/runner` (or `make generate`)", path)
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
	if !bytes.Equal(a, b) {
		t.Fatal("Generate() is not deterministic")
	}
}

// TestKernelsFollowOptnet parses the generated source and pins that
// every scalar kernel ceN and lane kernel laneN runs exactly the
// comparators of optnet.For(N), in table order: the two shapes cannot
// sort by different networks.
func TestKernelsFollowOptnet(t *testing.T) {
	src, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	file, err := parser.ParseFile(token.NewFileSet(), "zkernels.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	chains := make(map[string][]optnet.Comparator)
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			chains[fn.Name.Name] = chainOf(t, fn)
		}
	}
	for w := optnet.MinWidth; w <= optnet.MaxWidth; w++ {
		n, _ := optnet.For(w)
		var want []optnet.Comparator
		for _, layer := range n.Layers {
			want = append(want, layer...)
		}
		for _, k := range []struct {
			prefix string
			from   int
		}{{"ce", minKernelWidth}, {"lane", minLaneWidth}} {
			if w < k.from {
				continue
			}
			name := fmt.Sprintf("%s%d", k.prefix, w)
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
	}
	if len(chains) != 0 {
		t.Errorf("unexpected generated functions: %v", chains)
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
