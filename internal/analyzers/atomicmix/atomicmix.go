// Package atomicmix flags struct fields that are accessed through
// sync/atomic in one place and by plain load or store in another.
//
// A field touched by both `atomic.AddInt64(&x.f, 1)` and a bare `x.f`
// is a data race waiting for the memory model to collect: the plain
// access carries no happens-before edge, and the race detector only
// catches it on schedules that actually collide. The analyzer finds
// the mix statically: any field passed by address to a sync/atomic
// function anywhere in the package makes every plain selection of
// that field elsewhere a finding.
//
// A deliberate plain access — say, a read after every writer has
// provably finished — is annotated where it stands:
//
//	//netvet:allow plainaccess -- quiescent: no concurrent writers
//
// Fields of the typed atomic kinds (atomic.Int64, atomic.Pointer[T],
// ...) are exempt: they have no plain form to mix with (copying one
// is go vet copylocks' business). Test files are exempt, matching the
// other netvet analyzers: tests freely poke internals under
// single-goroutine setups.
package atomicmix

import (
	"go/ast"
	"go/types"

	"countnet/internal/analysis"
)

// Analyzer is the atomicmix pass.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "flag struct fields accessed both through sync/atomic and by plain load/store\n\n" +
		"A field passed by address to a sync/atomic function anywhere in the package\n" +
		"must not also be read or written plainly; annotate deliberate seal-protected\n" +
		"reads with //netvet:allow plainaccess -- reason.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	allows := analysis.CollectAllows(pass.Fset, pass.Files)

	// Pass 1: fields whose address is taken by a sync/atomic call, and
	// the selector nodes that feed those calls (excluded from pass 2).
	atomicFields := map[*types.Var]string{} // field → atomic func name
	atomicSites := map[*ast.SelectorExpr]bool{}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fun, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := fun.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
			if !ok || pn.Imported().Path() != "sync/atomic" {
				return true
			}
			addr, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok {
				return true
			}
			sel, ok := addr.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			field := selectedField(pass, sel)
			if field == nil {
				return true
			}
			if _, seen := atomicFields[field]; !seen {
				atomicFields[field] = fun.Sel.Name
			}
			atomicSites[sel] = true
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil, nil
	}

	// Pass 2: plain selections of those fields.
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicSites[sel] {
				return true
			}
			field := selectedField(pass, sel)
			if field == nil {
				return true
			}
			fn, mixed := atomicFields[field]
			if !mixed {
				return true
			}
			if allows.Allowed(pass.Fset, sel.Pos(), "plainaccess") {
				return true
			}
			pass.Reportf(sel.Pos(),
				"atomicmix: field %s is accessed via sync/atomic.%s elsewhere but plainly here; use the atomic accessor or annotate %s plainaccess -- reason",
				field.Name(), fn, analysis.AllowPrefix)
			return true
		})
	}
	return nil, nil
}

// selectedField resolves sel to the struct field it selects, or nil.
// Fields of sync/atomic's typed kinds are dropped: they have no plain
// access form to mix with.
func selectedField(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return nil
	}
	if named, ok := field.Type().(interface{ Obj() *types.TypeName }); ok {
		if p := named.Obj().Pkg(); p != nil && p.Path() == "sync/atomic" {
			return nil
		}
	}
	return field
}
