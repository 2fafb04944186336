// Command simrank computes SimRank over an edge-list file and optionally
// folds an update stream incrementally, printing the top-k most similar
// node-pairs after each phase.
//
// Usage:
//
//	simrank -graph edges.txt [-updates updates.txt] [-c 0.6] [-k 15]
//	        [-top 10] [-query NODE] [-stats]
//
// The graph file holds "from to" lines; the update stream holds
// "+ from to" / "- from to" lines (comments with # or %).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	simrank "repro"
	"repro/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "simrank: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphPath  = flag.String("graph", "", "edge-list file (required)")
		updates    = flag.String("updates", "", "optional update-stream file (+/- from to)")
		c          = flag.Float64("c", 0.6, "damping factor in (0,1)")
		k          = flag.Int("k", 15, "iteration count")
		top        = flag.Int("top", 10, "number of top pairs to print")
		query      = flag.Int("query", -1, "print top pairs for this node only")
		printStats = flag.Bool("stats", false, "print per-update work statistics")
	)
	flag.Parse()
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	g, err := graph.ParseEdgeList(f, 0)
	f.Close()
	if err != nil {
		return err
	}
	st := graph.Summarize(g)
	fmt.Printf("graph: %d nodes, %d edges, avg in-degree %.2f\n", st.Nodes, st.Edges, st.AvgInDeg)

	start := time.Now()
	eng, err := simrank.NewEngine(g.N(), g.Edges(), simrank.Options{
		C: *c, K: *k,
	})
	if err != nil {
		return err
	}
	fmt.Printf("batch SimRank (C=%.2f, K=%d) in %v\n", *c, *k, time.Since(start).Round(time.Millisecond))
	printTop(eng, *query, *top)

	if *updates == "" {
		return nil
	}
	uf, err := os.Open(*updates)
	if err != nil {
		return err
	}
	ups, err := graph.ParseUpdates(uf)
	uf.Close()
	if err != nil {
		return err
	}
	fmt.Printf("\nfolding %d updates incrementally...\n", len(ups))
	start = time.Now()
	for i, up := range ups {
		stats, err := eng.Apply(up)
		if err != nil {
			return fmt.Errorf("update %d (%v): %w", i, up, err)
		}
		if *printStats {
			fmt.Printf("  %v: affected=%d pairs\n", up, stats.AffectedPairs)
		}
	}
	fmt.Printf("done in %v (%d edges now)\n", time.Since(start).Round(time.Millisecond), eng.M())
	printTop(eng, *query, *top)
	return nil
}

func printTop(eng *simrank.Engine, query, top int) {
	if query >= 0 {
		fmt.Printf("top %d pairs for node %d:\n", top, query)
		for _, p := range eng.TopKFor(query, top) {
			fmt.Printf("  (%d, %d)  %.4f\n", p.A, p.B, p.Score)
		}
		return
	}
	fmt.Printf("top %d pairs:\n", top)
	for _, p := range eng.TopK(top) {
		fmt.Printf("  (%d, %d)  %.4f\n", p.A, p.B, p.Score)
	}
}
