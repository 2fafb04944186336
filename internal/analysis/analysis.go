// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis driver surface, sized for this
// repository's invariant checkers (cmd/simranklint).
//
// The repo's correctness story rests on invariants the compiler cannot
// express — the WAL append happens before the view publish, every
// similarity write-back reports its dirty rows, hot paths stay
// allocation-free, and all randomness derives from chained splitmix64
// seeds. Each invariant is enforced by one analyzer under this package
// (publishorder, noalloc, detrand, dirtyrows, fsyncerr); the
// conventions they key on are machine-readable //simrank:* directives
// documented per directive in annotations.go and summarized in the
// repository README. The one invariant the compiler can express, that
// sealed MVCC views are immutable, is left to it: a Seal returns a type
// with no write method.
//
// The API deliberately mirrors x/tools/go/analysis (Analyzer, Pass,
// Diagnostic, analysistest-style golden tests) so the suite can migrate
// to the real framework wholesale if the dependency ever becomes
// available; the loader in load.go stands in for go/packages using
// `go list -json -deps` plus go/types.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the
	// simranklint command line.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Run applies the analyzer to one package. It reports findings via
	// pass.Reportf and returns a hard error only when analysis itself
	// could not proceed (a hard error fails the whole run).
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package
// and collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer

	// Fset maps token.Pos values in Files to file positions.
	Fset *token.FileSet

	// Path is the import path the package was loaded as. Analyzers use
	// it to scope themselves (e.g. detrand's determinism-critical set).
	Path string

	// Files are the parsed source files, with comments.
	Files []*ast.File

	// Pkg and Info are the go/types results for the package.
	Pkg  *types.Package
	Info *types.Info

	diagnostics []Diagnostic
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding against the position of node-or-pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies each analyzer to pkg and returns the combined
// diagnostics sorted by file position.
func Run(analyzers []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		out = append(out, pass.diagnostics...)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
