package simrank

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// TestFileToEnginePipeline exercises the cmd/simrank flow end to end:
// generate a graph and update stream, write them to disk, parse them back,
// build an engine, fold the updates, and verify against a rebuild.
func TestFileToEnginePipeline(t *testing.T) {
	dir := t.TempDir()
	g := gen.PrefAttach(60, 4, 5)
	ups := gen.MixedStream(g, 8, 0.75, 6)

	graphPath := filepath.Join(dir, "g.txt")
	upsPath := filepath.Join(dir, "u.txt")
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(graphPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := graph.WriteUpdates(&buf, ups); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(upsPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	gf, err := os.Open(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := graph.ParseEdgeList(gf, 0)
	gf.Close()
	if err != nil {
		t.Fatal(err)
	}
	uf, err := os.Open(upsPath)
	if err != nil {
		t.Fatal(err)
	}
	parsedUps, err := graph.ParseUpdates(uf)
	uf.Close()
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(parsed.N(), parsed.Edges(), Options{C: 0.6, K: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range parsedUps {
		if _, err := eng.Apply(up); err != nil {
			t.Fatalf("apply %v: %v", up, err)
		}
	}

	final := g.Clone()
	for _, up := range ups {
		final.Apply(up)
	}
	fresh, err := NewEngine(final.N(), final.Edges(), Options{C: 0.6, K: 25})
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(eng.Similarities(), fresh.Similarities()); d > 1e-5 {
		t.Fatalf("pipeline drifted %g from rebuild", d)
	}
	// The most similar pairs must agree between incremental and rebuilt.
	a, b := eng.TopK(5), fresh.TopK(5)
	for i := range a {
		if a[i].A != b[i].A || a[i].B != b[i].B {
			t.Fatalf("top-%d pair differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSnapshotPipeline round-trips an engine through disk mid-stream.
func TestSnapshotPipeline(t *testing.T) {
	dir := t.TempDir()
	g := gen.PrefAttach(40, 4, 9)
	eng, err := NewEngine(g.N(), g.Edges(), Options{C: 0.6, K: 25})
	if err != nil {
		t.Fatal(err)
	}
	ups := gen.MixedStream(g, 6, 0.5, 10)
	for _, up := range ups[:3] {
		if _, err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "engine.simr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups[3:] {
		if _, err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	// Adjacency iteration order varies run to run (Go map order), so two
	// executions of the same update may differ by accumulation-order ULPs.
	if d := matrix.MaxAbsDiff(eng.Similarities(), restored.Similarities()); d > 1e-12 {
		t.Fatalf("restored engine drifted %g", d)
	}
}
