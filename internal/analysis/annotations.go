package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //simrank:* directive vocabulary. Directives are ordinary line
// comments with no space after "//", mirroring //go: tool directives.
//
// Function-level (written in a FuncDecl's doc comment):
//
//	//simrank:noalloc        — the function's steady-state body must not
//	                           allocate; checked by the noalloc analyzer
//	                           as the static complement of AllocsPerRun.
//	//simrank:publish        — the function is an approved MVCC publish
//	                           point; atomic.Pointer.Store is legal only
//	                           inside such functions (publishorder).
//
// Line-level (written on, or on the line directly above, the construct
// they excuse; a reason after the directive name is required reading
// for reviewers and strongly encouraged):
//
//	//simrank:allocok <why>        — excuses one allocating construct
//	                                 inside a noalloc function. Does NOT
//	                                 excuse a go statement: a noalloc
//	                                 path never spawns a goroutine.
//	//simrank:orderinvariant <why> — marks a map-range loop whose effect
//	                                 was audited to be independent of
//	                                 iteration order (detrand).
//	//simrank:errok <why>          — excuses one discarded Sync/Close/
//	                                 Rename error (fsyncerr).
const directivePrefix = "//simrank:"

// FuncDirectives returns the set of simrank directive names attached to
// the declaration's doc comment, e.g. {"noalloc": true}.
func FuncDirectives(fn *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	if fn.Doc == nil {
		return out
	}
	for _, c := range fn.Doc.List {
		if name, ok := directiveName(c.Text); ok {
			out[name] = true
		}
	}
	return out
}

// HasFuncDirective reports whether fn's doc comment carries the named
// directive.
func HasFuncDirective(fn *ast.FuncDecl, name string) bool {
	return FuncDirectives(fn)[name]
}

// LineDirectives scans every comment in file and returns, for the named
// directive, the set of source lines it covers. A line-level directive
// covers its own line and the line immediately below it, so both the
// trailing-comment and the line-above placements work:
//
//	x = alloc() //simrank:allocok cold path
//
//	//simrank:allocok cold path
//	x = alloc()
func LineDirectives(fset *token.FileSet, file *ast.File, name string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			got, ok := directiveName(c.Text)
			if !ok || got != name {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// directiveName parses "//simrank:allocok reason..." into "allocok".
func directiveName(text string) (string, bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}
