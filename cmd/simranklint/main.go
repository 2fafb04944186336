// Command simranklint runs the repository's invariant analyzers
// (internal/analysis/passes/...) over the module and exits non-zero on
// any finding. It is the blocking lint gate CI runs next to go vet:
//
//	go run ./cmd/simranklint ./...
//
// Flags select a subset of analyzers for focused runs:
//
//	go run ./cmd/simranklint -run noalloc,detrand ./...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/detrand"
	"repro/internal/analysis/passes/dirtyrows"
	"repro/internal/analysis/passes/fsyncerr"
	"repro/internal/analysis/passes/noalloc"
	"repro/internal/analysis/passes/publishorder"
)

var all = []*analysis.Analyzer{
	publishorder.Analyzer,
	noalloc.Analyzer,
	detrand.Analyzer,
	dirtyrows.Analyzer,
	fsyncerr.Analyzer,
}

func main() {
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simranklint [-run names] [packages]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := all
	if *runFlag != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runFlag, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "simranklint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simranklint:", err)
		os.Exit(2)
	}
	loader := analysis.NewLoader(wd)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simranklint:", err)
		os.Exit(2)
	}

	findings := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(analyzers, pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simranklint:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			fmt.Printf("%s:%d:%d: [%s] %s\n", rel(wd, pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "simranklint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// rel trims the working directory prefix for readable output.
func rel(wd, path string) string {
	if strings.HasPrefix(path, wd+string(os.PathSeparator)) {
		return path[len(wd)+1:]
	}
	return path
}
