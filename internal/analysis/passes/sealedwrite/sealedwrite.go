// Package sealedwrite flags mutations of sealed values — the MVCC
// correctness rule the whole lock-free read path rests on.
//
// A value returned by Seal() (a sealed simstore.Store, a
// graph.Snapshot, an engineView and anything reached through one) is
// immutable by contract: readers compose queries against it with no
// lock, and the writer republishes by copy-on-write, never in place.
// Calling a mutating method on such a value corrupts concurrent
// readers in ways the race detector only catches if a test happens to
// overlap the exact pair of accesses.
//
// The analyzer tracks, within each function, values that flow from a
// Seal() call (through assignments, type assertions and field
// selections) plus anything statically typed as a sealed view type,
// and reports mutating method calls on them. Copy-on-write helpers
// that legitimately build the next sealed generation live in the
// store/graph/walk-index packages (excluded wholesale) or carry a
// //simrank:sealsafe directive.
package sealedwrite

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// implementers are the copy-on-write layers themselves: they own the
// seal machinery and must mutate buffers while building the next
// generation.
var implementers = map[string]bool{
	"repro/internal/simstore":   true,
	"repro/internal/graph":      true,
	"repro/internal/montecarlo": true,
}

// mutators is the union of mutating method names across the store
// interface and the exact stores' cell surface, the graph, and the walk
// index. Row and ColInto are included deliberately: they may use
// store-internal scratch on the single-writer path, so calling them on
// a sealed value is a bug even though they look like reads.
var mutators = map[string]bool{
	"Set": true, "Add": true, "AddSym": true, "ApplyUpdate": true,
	"AddNodes": true, "AddEdge": true, "SetFromDense": true,
	"SetRepairGen": true, "AbandonBack": true, "Row": true, "ColInto": true,
	"Update": true, "Recompute": true, "SetWorkers": true,
}

// sealedTypeNames are types that are sealed by construction — every
// value of the type is on the immutable side of the COW boundary.
var sealedTypeNames = map[string]bool{"engineView": true, "Snapshot": true}

var Analyzer = &analysis.Analyzer{
	Name: "sealedwrite",
	Doc:  "flags mutating method calls on values that flow from Seal()/sealed view types",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Path, "repro") || implementers[pass.Path] ||
		strings.HasPrefix(pass.Path, "repro/internal/analysis") {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || analysis.HasFuncDirective(fn, "sealsafe") {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

type checker struct {
	pass   *analysis.Pass
	sealed map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	c := &checker{pass: pass, sealed: map[types.Object]bool{}}

	// Fixpoint: propagate sealedness through local assignments
	// (x := s.Seal(); y := x; v, ok := y.(*Dense); ...).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				changed = c.recordAssign(s.Lhs, s.Rhs) || changed
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(s.Names))
				for i, id := range s.Names {
					lhs[i] = id
				}
				changed = c.recordAssign(lhs, s.Values) || changed
			}
			return true
		})
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := analysis.MethodCall(call)
		if !ok || !mutators[name] {
			return true
		}
		// Atomic counters (engineView.readers and friends) are interior-
		// mutable by design: mutating them through a sealed view is the
		// contract, not a violation.
		if tv, ok := pass.Info.Types[recv]; ok && analysis.NamedTypePkgPath(tv.Type) == "sync/atomic" {
			return true
		}
		if c.sealedExpr(recv) {
			pass.Reportf(call.Pos(), "%s on a sealed value; sealed views are immutable — go through Writable()/copy-on-write, or annotate the COW helper //simrank:sealsafe", name)
		}
		return true
	})
}

// recordAssign marks LHS idents sealed when their RHS is sealed,
// handling both 1:1 assignments and the v, ok := x.(T) comma-ok form.
func (c *checker) recordAssign(lhs, rhs []ast.Expr) bool {
	changed := false
	mark := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := c.pass.Info.Defs[id]
		if obj == nil {
			obj = c.pass.Info.Uses[id]
		}
		if obj != nil && !c.sealed[obj] {
			c.sealed[obj] = true
			changed = true
		}
	}
	switch {
	case len(lhs) == len(rhs):
		for i := range rhs {
			if c.sealedExpr(rhs[i]) {
				mark(lhs[i])
			}
		}
	case len(rhs) == 1 && len(lhs) == 2:
		if c.sealedExpr(rhs[0]) {
			mark(lhs[0])
		}
	}
	return changed
}

// sealedExpr reports whether e denotes a sealed value.
func (c *checker) sealedExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := c.pass.Info.Types[e]; ok && c.sealedType(tv.Type) {
		return true
	}
	switch v := e.(type) {
	case *ast.Ident:
		obj := c.pass.Info.Uses[v]
		if obj == nil {
			obj = c.pass.Info.Defs[v]
		}
		return obj != nil && c.sealed[obj]
	case *ast.CallExpr:
		if _, name, ok := analysis.MethodCall(v); ok && name == "Seal" {
			return true
		}
	case *ast.SelectorExpr:
		return c.sealedExpr(v.X)
	case *ast.TypeAssertExpr:
		return c.sealedExpr(v.X)
	case *ast.StarExpr:
		return c.sealedExpr(v.X)
	case *ast.UnaryExpr:
		return c.sealedExpr(v.X)
	}
	return false
}

// sealedType reports whether t names a sealed-by-construction type.
func (c *checker) sealedType(t types.Type) bool {
	return sealedTypeNames[analysis.NamedTypeName(t)] &&
		strings.HasPrefix(analysis.NamedTypePkgPath(t), "repro")
}
