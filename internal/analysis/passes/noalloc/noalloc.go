// Package noalloc is the static complement of zeroalloc_test.go's
// AllocsPerRun assertions: functions annotated //simrank:noalloc are
// rejected if their steady-state body contains an allocating construct.
//
// The dynamic test proves a particular execution allocated nothing;
// this analyzer proves the property survives refactors that the test's
// fixed inputs never exercise. It is intraprocedural by design — calls
// into other functions are trusted (annotate them too if they are on
// the pinned path) — and it understands the two idioms a warm path is
// allowed to use:
//
//   - in-place growth, x = append(x, ...): amortized-zero once pools
//     are warm, so only appends into a *different* slice are flagged;
//   - cold error returns: a construct inside a `return ..., err` whose
//     error operand is non-nil is off the steady-state path (the
//     AllocsPerRun contract only covers successful execution).
//
// Everything else that allocates is reported: make/new, escaping
// composite literals (&T{...}, slice and map literals), non-self
// appends, map writes, escaping closures, string concatenation and
// conversions, fmt, go statements, implicit variadic slices, and
// interface boxing of non-pointer-shaped values. A deliberate
// exception carries //simrank:allocok <reason> on (or above) its line.
//
// Go statements are special: a noalloc path runs on its caller's
// goroutine, so a go statement inside one is always reported, and
// allocok does not excuse it.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "rejects allocating constructs inside //simrank:noalloc functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		allocok := analysis.LineDirectives(pass.Fset, file, "allocok")
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.HasFuncDirective(fn, "noalloc") {
				continue
			}
			c := &checker{pass: pass, fn: fn, allocok: allocok, parents: analysis.ParentMap(fn)}
			c.check()
		}
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	fn      *ast.FuncDecl
	allocok map[int]bool
	parents map[ast.Node]ast.Node
}

func (c *checker) report(n ast.Node, format string, args ...any) {
	line := c.pass.Fset.Position(n.Pos()).Line
	if c.allocok[line] || c.coldErrorPath(n) {
		return
	}
	c.pass.Reportf(n.Pos(), format, args...)
}

// coldErrorPath reports whether n sits inside a return statement whose
// final operand is a non-nil error — allocation there is off the
// steady-state path the noalloc contract covers.
func (c *checker) coldErrorPath(n ast.Node) bool {
	var ret *ast.ReturnStmt
	for cur := n; cur != nil; cur = c.parents[cur] {
		if r, ok := cur.(*ast.ReturnStmt); ok {
			ret = r
			break
		}
	}
	if ret == nil || len(ret.Results) == 0 {
		return false
	}
	obj, ok := c.pass.Info.Defs[c.fn.Name].(*types.Func)
	if !ok {
		return false
	}
	results := obj.Signature().Results()
	if results.Len() == 0 || !types.Identical(results.At(results.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	if tv, ok := c.pass.Info.Types[last]; ok && tv.IsNil() {
		return false
	}
	return true
}

func (c *checker) check() {
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.GoStmt:
			// Not routed through report: allocok cannot excuse a spawn.
			c.pass.Reportf(node.Pos(), "go statement allocates a goroutine in a //simrank:noalloc function; allocok does not excuse a spawn")
			return true
		case *ast.CallExpr:
			c.checkCall(node)
		case *ast.CompositeLit:
			c.checkCompositeLit(node)
		case *ast.FuncLit:
			if !c.nonEscapingFuncLit(node) {
				c.report(node, "escaping function literal allocates a closure")
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD && c.isString(node) {
				c.report(node, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && c.isMap(idx.X) {
					c.report(lhs, "map write may allocate (bucket growth); noalloc paths must not write maps")
				}
			}
			c.checkInterfaceAssign(node)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch c.pass.Info.Uses[id] {
		case types.Universe.Lookup("make"):
			c.report(call, "make allocates; hoist the buffer into the workspace/pool")
			return
		case types.Universe.Lookup("new"):
			c.report(call, "new allocates")
			return
		case types.Universe.Lookup("append"):
			if !c.selfAppend(call) {
				c.report(call, "append into a different slice allocates; only the in-place x = append(x, ...) form is amortized-free")
			}
			return
		case types.Universe.Lookup("panic"):
			// A panic terminates the fast path; boxing its argument is a
			// cold-path allocation, like an error return.
			return
		}
	}
	// Type conversions.
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}
	if analysis.CalleePkgPath(c.pass.Info, call) == "fmt" {
		c.report(call, "fmt always allocates; keep formatting off the noalloc path")
		return
	}
	sig := analysis.CallSignature(c.pass.Info, call)
	if sig == nil {
		return
	}
	c.checkArgBoxing(call, sig)
}

// checkConversion flags the conversions that copy: string <-> byte/rune
// slices, and boxing a non-pointer-shaped value into an interface.
func (c *checker) checkConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	argTV, ok := c.pass.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	src := argTV.Type
	switch {
	case isStringType(target) && isByteOrRuneSlice(src),
		isByteOrRuneSlice(target) && isStringType(src):
		c.report(call, "string/slice conversion copies and allocates")
	case analysis.IsInterface(target) && !analysis.IsInterface(src) && !argTV.IsNil() && !analysis.PointerShaped(src):
		c.report(call, "converting %s to an interface boxes (allocates)", src)
	}
}

// checkArgBoxing flags concrete non-pointer-shaped values passed where
// an interface parameter expects them, and the implicit slice a
// variadic call builds.
func (c *checker) checkArgBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				continue // spread of an existing slice: no new backing array
			}
			if i == n-1 {
				c.report(call, "variadic call builds an implicit slice (allocates)")
			}
			pt = params.At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = params.At(i).Type()
		default:
			continue
		}
		argTV, ok := c.pass.Info.Types[arg]
		if !ok {
			continue
		}
		if analysis.IsInterface(pt) && !analysis.IsInterface(argTV.Type) && !argTV.IsNil() && !analysis.PointerShaped(argTV.Type) {
			c.report(arg, "passing %s as interface %s boxes (allocates)", argTV.Type, pt)
		}
	}
}

func (c *checker) checkCompositeLit(lit *ast.CompositeLit) {
	if p, ok := c.parents[lit].(*ast.UnaryExpr); ok && p.Op == token.AND {
		c.report(p, "&composite literal escapes to the heap")
		return
	}
	tv, ok := c.pass.Info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		c.report(lit, "%s literal allocates its backing storage", tv.Type)
	}
}

// nonEscapingFuncLit allows the two closure shapes the compiler keeps
// off the heap: an immediately-invoked literal, and a literal bound to
// a plain local variable (called directly later, as IncSR's applyTerm
// is). Passing a literal to another function or storing it in a
// structure escapes it.
func (c *checker) nonEscapingFuncLit(lit *ast.FuncLit) bool {
	switch p := c.parents[lit].(type) {
	case *ast.CallExpr:
		return p.Fun == lit
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
				return false
			}
		}
		return true
	case *ast.ValueSpec:
		return true
	}
	return false
}

// selfAppend recognizes x = append(x, ...) (including field targets
// like ws.dirty = append(ws.dirty, r)).
func (c *checker) selfAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	assign, ok := c.parents[call].(*ast.AssignStmt)
	if !ok {
		return false
	}
	dst := types.ExprString(ast.Unparen(call.Args[0]))
	for i, rhs := range assign.Rhs {
		if ast.Unparen(rhs) == ast.Node(call) && i < len(assign.Lhs) {
			return types.ExprString(ast.Unparen(assign.Lhs[i])) == dst
		}
	}
	return false
}

// checkInterfaceAssign flags `ifaceVar = concreteNonPointer` stores.
func (c *checker) checkInterfaceAssign(assign *ast.AssignStmt) {
	if assign.Tok != token.ASSIGN || len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i := range assign.Lhs {
		ltv, lok := c.pass.Info.Types[assign.Lhs[i]]
		rtv, rok := c.pass.Info.Types[assign.Rhs[i]]
		if !lok || !rok || !analysis.IsInterface(ltv.Type) {
			continue
		}
		if !analysis.IsInterface(rtv.Type) && !rtv.IsNil() && !analysis.PointerShaped(rtv.Type) {
			c.report(assign.Rhs[i], "assigning %s to interface %s boxes (allocates)", rtv.Type, ltv.Type)
		}
	}
}

func (c *checker) isString(e ast.Expr) bool {
	tv, ok := c.pass.Info.Types[e]
	return ok && isStringType(tv.Type)
}

func (c *checker) isMap(e ast.Expr) bool {
	tv, ok := c.pass.Info.Types[e]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
