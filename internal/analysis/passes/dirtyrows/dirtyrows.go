// Package dirtyrows enforces the write-back/invalidation pairing in
// the incremental kernels: every similarity-store write inside
// internal/core must report the rows it touched.
//
// The top-k cache and ConcurrentEngine.Apply's caller-owned copy both
// trust core.Stats.DirtyRows to name exactly the S-rows an update
// wrote. A store write with no markDirty on the same path silently
// serves stale cached top-k results.
//
// Rule: in a function that calls Add/AddSym/Set on a similarity-store
// interface (any interface whose method set includes AddSym), each such
// call must share a block with — or be dominated by — a call to
// markDirty. There is no opt-out.
package dirtyrows

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var reporters = map[string]bool{"markDirty": true}

var mutators = map[string]bool{"Add": true, "AddSym": true, "Set": true}

var Analyzer = &analysis.Analyzer{
	Name: "dirtyrows",
	Doc:  "requires dirty-row reporting alongside every similarity-store write in internal/core",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Path != "repro/internal/core" {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	var writes []*ast.CallExpr
	var reports []*ast.CallExpr
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := analysis.MethodCall(call)
		if !ok {
			if id, ok := call.Fun.(*ast.Ident); ok && reporters[id.Name] {
				reports = append(reports, call)
			}
			return true
		}
		switch {
		case reporters[name]:
			reports = append(reports, call)
		case mutators[name] && isSimStore(pass.Info, recv):
			writes = append(writes, call)
		}
		return true
	})
	if len(writes) == 0 {
		return
	}
	parents := analysis.ParentMap(fn)
	for _, w := range writes {
		if !paired(parents, w, reports) {
			_, name, _ := analysis.MethodCall(w)
			pass.Reportf(w.Pos(), "store write %s without dirty-row reporting on the same path; call markDirty here", name)
		}
	}
}

// isSimStore reports whether the receiver is a similarity-store
// interface: any interface whose method set includes AddSym. Keying on
// the method set rather than the SimStore name keeps the rule valid
// across refactors (and testable from fixture packages).
func isSimStore(info *types.Info, recv ast.Expr) bool {
	tv, ok := info.Types[recv]
	if !ok {
		return false
	}
	iface, ok := tv.Type.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "AddSym" {
			return true
		}
	}
	return false
}

// paired reports whether some dirty-row report shares w's innermost
// block or dominates w.
func paired(parents map[ast.Node]ast.Node, w *ast.CallExpr, reports []*ast.CallExpr) bool {
	wb := enclosingBlock(parents, w)
	for _, r := range reports {
		if enclosingBlock(parents, r) == wb || analysis.Dominates(parents, r, w) {
			return true
		}
	}
	return false
}

func enclosingBlock(parents map[ast.Node]ast.Node, n ast.Node) *ast.BlockStmt {
	for cur := n; cur != nil; cur = parents[cur] {
		if b, ok := cur.(*ast.BlockStmt); ok {
			return b
		}
	}
	return nil
}
