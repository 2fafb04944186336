package simrank

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
)

func mustEngine(t *testing.T, n int, edges []Edge, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(n, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineDefaults(t *testing.T) {
	e := mustEngine(t, 3, nil, Options{})
	o := e.Options()
	if o.C != 0.6 || o.K != 15 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(-1, nil, Options{}); err == nil {
		t.Fatal("want error for negative n")
	}
	if _, err := NewEngine(3, nil, Options{C: 2}); err == nil {
		t.Fatal("want error for C out of range")
	}
	if _, err := NewEngine(3, nil, Options{K: -5}); err == nil {
		t.Fatal("want error for negative K")
	}
	// An edge endpoint outside [0, n) is an error, not a panic, on every
	// backend and for the engine-free single-source query.
	for _, bad := range []Edge{{From: 0, To: 7}, {From: -1, To: 1}} {
		edges := []Edge{{From: 0, To: 1}, bad}
		for _, b := range []Backend{BackendDense, BackendPacked, BackendApprox} {
			if _, err := NewEngine(3, edges, Options{Backend: b}); err == nil {
				t.Fatalf("%s: want error for edge %v at n=3", b, bad)
			}
		}
		if _, err := SingleSourceScores(3, edges, 0, Options{}); err == nil {
			t.Fatalf("SingleSourceScores: want error for edge %v at n=3", bad)
		}
	}
}

func TestEngineBatchScores(t *testing.T) {
	// 0→1, 0→2: matrix-form s(1,2) = C(1−C).
	e := mustEngine(t, 3, []Edge{{From: 0, To: 1}, {From: 0, To: 2}}, Options{C: 0.8})
	if got, want := e.Similarity(1, 2), 0.8*0.2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("s(1,2) = %v, want %v", got, want)
	}
	if e.N() != 3 || e.M() != 2 || !e.HasEdge(0, 1) {
		t.Fatal("graph accessors wrong")
	}
}

func TestEngineInsertMatchesRebuild(t *testing.T) {
	e := mustEngine(t, 5, []Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 2}}, Options{C: 0.6, K: 40})
	st, err := e.Insert(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.AffectedPairs <= 0 {
		t.Fatal("insert should affect some pairs")
	}
	fresh := mustEngine(t, 5, []Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 2}, {From: 1, To: 2}}, Options{C: 0.6, K: 40})
	if d := matrix.MaxAbsDiff(e.Similarities(), fresh.Similarities()); d > 1e-9 {
		t.Fatalf("incremental insert drifted %g from rebuild", d)
	}
}

func TestEngineDeleteMatchesRebuild(t *testing.T) {
	e := mustEngine(t, 5, []Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 2}}, Options{C: 0.6, K: 40})
	if _, err := e.Delete(3, 2); err != nil {
		t.Fatal(err)
	}
	fresh := mustEngine(t, 5, []Edge{{From: 0, To: 1}, {From: 0, To: 2}}, Options{C: 0.6, K: 40})
	if d := matrix.MaxAbsDiff(e.Similarities(), fresh.Similarities()); d > 1e-9 {
		t.Fatalf("incremental delete drifted %g from rebuild", d)
	}
}

// Every backend rejects the same bad updates with the same
// *core.ErrBadUpdate reason, through Apply and a one-update ApplyBatch
// alike, and a rejected update leaves epoch, size and scores untouched.
func TestEngineErrorsLeaveStateIntact(t *testing.T) {
	cases := []struct {
		up     Update
		reason string
	}{
		{Update{Edge: Edge{From: 0, To: 3}, Insert: true}, "node out of range"},
		{Update{Edge: Edge{From: -1, To: 1}, Insert: false}, "node out of range"},
		{Update{Edge: Edge{From: 0, To: 1}, Insert: true}, "edge already present"},
		{Update{Edge: Edge{From: 1, To: 2}, Insert: false}, "edge absent"},
	}
	apply := map[string]func(*Engine, Update) error{
		"Apply":      func(e *Engine, up Update) error { _, err := e.Apply(up); return err },
		"ApplyBatch": func(e *Engine, up Update) error { return e.ApplyBatch([]Update{up}) },
	}
	scores := func(e *Engine) []float64 {
		var out []float64
		for a := 0; a < e.N(); a++ {
			for b := 0; b < e.N(); b++ {
				out = append(out, e.Similarity(a, b))
			}
		}
		return out
	}
	for _, b := range []Backend{BackendDense, BackendPacked, BackendApprox} {
		e := mustEngine(t, 3, []Edge{{From: 0, To: 1}, {From: 2, To: 1}}, Options{Backend: b})
		before := scores(e)
		for name, fn := range apply {
			for _, tc := range cases {
				err := fn(e, tc.up)
				var bad *core.ErrBadUpdate
				if !errors.As(err, &bad) || bad.Reason != tc.reason {
					t.Fatalf("%s %s %v: got %v, want *core.ErrBadUpdate %q", b, name, tc.up, err, tc.reason)
				}
				after := scores(e)
				for i := range before {
					if after[i] != before[i] {
						t.Fatalf("%s %s %v: score %d moved %v -> %v", b, name, tc.up, i, before[i], after[i])
					}
				}
				if e.Epoch() != 0 || e.N() != 3 || e.M() != 2 {
					t.Fatalf("%s %s %v: epoch %d, n %d, m %d after a rejected update", b, name, tc.up, e.Epoch(), e.N(), e.M())
				}
			}
		}
	}
}

func TestEngineTopK(t *testing.T) {
	e := mustEngine(t, 4, []Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 1}, {From: 3, To: 2}}, Options{C: 0.8})
	top := e.TopK(1)
	if len(top) != 1 {
		t.Fatalf("TopK len %d", len(top))
	}
	if !(top[0].A == 1 && top[0].B == 2) {
		t.Fatalf("top pair = %+v, want (1,2)", top[0])
	}
	forNode := e.TopKFor(1, 2)
	if len(forNode) == 0 || forNode[0].B != 2 {
		t.Fatalf("TopKFor = %+v", forNode)
	}
}

func TestEngineApplyBatchSmallIncremental(t *testing.T) {
	edges := []Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 0}, {From: 1, To: 2},
		{From: 1, To: 4}, {From: 2, To: 5}, {From: 3, To: 0}, {From: 4, To: 1}, {From: 5, To: 0}, {From: 0, To: 3}, {From: 2, To: 0}}
	e := mustEngine(t, 6, edges, Options{C: 0.6, K: 30})
	// 2 updates < 0.15·14 edges → incremental path, one epoch per update.
	ups := []Update{
		{Edge: Edge{From: 5, To: 3}, Insert: true},
		{Edge: Edge{From: 5, To: 1}, Insert: true},
	}
	if err := e.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 2 {
		t.Fatalf("epoch %d after a 2-update incremental batch, want 2", e.Epoch())
	}
	fresh := mustEngine(t, 6, append(edges, Edge{From: 5, To: 3}, Edge{From: 5, To: 1}), Options{C: 0.6, K: 30})
	// Tolerance covers the K=30 truncation error of the old S (≈ C³¹)
	// flowing through the incremental update.
	if d := matrix.MaxAbsDiff(e.Similarities(), fresh.Similarities()); d > 1e-6 {
		t.Fatalf("batch drifted %g", d)
	}
}

func TestEngineApplyBatchLargeRecomputes(t *testing.T) {
	edges := []Edge{{From: 0, To: 1}, {From: 1, To: 2}}
	e := mustEngine(t, 4, edges, Options{C: 0.6, K: 30})
	// 2 updates ≥ 0.15·2 edges → recompute path, one epoch in all.
	ups := []Update{
		{Edge: Edge{From: 2, To: 3}, Insert: true},
		{Edge: Edge{From: 0, To: 1}, Insert: false},
	}
	if err := e.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 1 {
		t.Fatalf("epoch %d after a recomputed batch, want 1", e.Epoch())
	}
	fresh := mustEngine(t, 4, []Edge{{From: 1, To: 2}, {From: 2, To: 3}}, Options{C: 0.6, K: 30})
	if d := matrix.MaxAbsDiff(e.Similarities(), fresh.Similarities()); d > 1e-12 {
		t.Fatalf("recompute path drifted %g", d)
	}
}

func TestEngineApplyBatchBadSequence(t *testing.T) {
	e := mustEngine(t, 3, []Edge{{From: 0, To: 1}}, Options{})
	ups := []Update{{Edge: Edge{From: 0, To: 1}, Insert: true}} // already present
	if err := e.ApplyBatch(ups); err == nil {
		t.Fatal("want error for inapplicable batch")
	}
}

// TestEngineApplyBatchFailureIsAtomic is the regression test for the
// partial-application bug: a batch whose later update is inapplicable must
// leave the graph and similarity matrix exactly as they were, in both the
// incremental and the recompute regime.
func TestEngineApplyBatchFailureIsAtomic(t *testing.T) {
	edges := []Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0}}
	// Nodes 5–7 point at every other node: 25 edges, enough that a
	// 3-update batch stays under the 0.15·|E| crossover.
	dense := append([]Edge(nil), edges...)
	for i := 5; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if j != i {
				dense = append(dense, Edge{From: i, To: j})
			}
		}
	}
	for _, tc := range []struct {
		name  string
		n     int
		edges []Edge // the batch size reaches the regime through |E|
		step  uint64 // epochs a valid 2-update batch advances on that path
	}{
		{"incremental", 8, dense, 2},
		{"recompute", 5, edges, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, tc.n, tc.edges, Options{C: 0.6, K: 20})
			before := e.Similarities()
			beforeM := e.M()
			ups := []Update{
				{Edge: Edge{From: 4, To: 0}, Insert: true},  // applicable
				{Edge: Edge{From: 0, To: 2}, Insert: false}, // absent → must fail
				{Edge: Edge{From: 4, To: 1}, Insert: true},
			}
			if err := e.ApplyBatch(ups); err == nil {
				t.Fatal("want error for inapplicable batch")
			}
			if e.M() != beforeM {
				t.Fatalf("failed batch mutated the graph: %d edges, want %d", e.M(), beforeM)
			}
			if e.HasEdge(4, 0) {
				t.Fatal("failed batch left its first update applied")
			}
			if d := matrix.MaxAbsDiff(e.Similarities(), before); d != 0 {
				t.Fatalf("failed batch perturbed similarities by %g", d)
			}
			// The engine stays fully usable after the rejected batch, and
			// the valid updates take the regime under test.
			epoch := e.Epoch()
			if err := e.ApplyBatch([]Update{ups[0], ups[2]}); err != nil {
				t.Fatalf("engine unusable after failed batch: %v", err)
			}
			if got := e.Epoch() - epoch; got != tc.step {
				t.Fatalf("valid batch advanced %d epochs, want %d", got, tc.step)
			}
		})
	}
}

// TestEngineApplyBatchSequenceReuse checks that validation simulates the
// batch *in sequence*: deleting an edge and re-inserting it in the same
// batch is legal, and inserting the same missing edge twice is not.
func TestEngineApplyBatchSequenceReuse(t *testing.T) {
	e := mustEngine(t, 3, []Edge{{From: 0, To: 1}}, Options{})
	ok := []Update{
		{Edge: Edge{From: 0, To: 1}, Insert: false},
		{Edge: Edge{From: 0, To: 1}, Insert: true},
	}
	if err := e.ApplyBatch(ok); err != nil {
		t.Fatalf("delete+reinsert of same edge rejected: %v", err)
	}
	bad := []Update{
		{Edge: Edge{From: 1, To: 2}, Insert: true},
		{Edge: Edge{From: 1, To: 2}, Insert: true},
	}
	if err := e.ApplyBatch(bad); err == nil {
		t.Fatal("double insert of same edge accepted")
	}
	if e.HasEdge(1, 2) {
		t.Fatal("rejected batch mutated the graph")
	}
}

func TestEngineApplyBatchEmpty(t *testing.T) {
	e := mustEngine(t, 3, nil, Options{})
	if err := e.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngineSimilaritiesIsSnapshot(t *testing.T) {
	e := mustEngine(t, 3, []Edge{{From: 0, To: 1}}, Options{})
	snap := e.Similarities()
	snap.Set(0, 1, 99)
	if e.Similarity(0, 1) == 99 {
		t.Fatal("Similarities must return a copy")
	}
}

func TestEngineRecompute(t *testing.T) {
	e := mustEngine(t, 3, []Edge{{From: 0, To: 1}}, Options{})
	before := e.Similarities()
	e.Recompute()
	if matrix.MaxAbsDiff(before, e.Similarities()) != 0 {
		t.Fatal("recompute of unchanged graph must be a fixed point")
	}
}

// Property: a random walk of engine updates tracks batch recomputation.
func TestQuickEngineTracksBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g := graph.New(n)
		for g.M() < 2*n {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		e, err := NewEngine(n, g.Edges(), Options{C: 0.6, K: 50})
		if err != nil {
			return false
		}
		for step := 0; step < 5; step++ {
			var up Update
			if g.M() > 0 && rng.Intn(2) == 0 {
				es := g.Edges()
				up = Update{Edge: es[rng.Intn(len(es))], Insert: false}
			} else {
				for {
					c := Edge{From: rng.Intn(n), To: rng.Intn(n)}
					if !g.HasEdge(c.From, c.To) {
						up = Update{Edge: c, Insert: true}
						break
					}
				}
			}
			if _, err := e.Apply(up); err != nil {
				return false
			}
			g.Apply(up)
		}
		want := batch.MatrixForm(g, 0.6, 50)
		return matrix.MaxAbsDiff(e.Similarities(), want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineAddNodes(t *testing.T) {
	e := mustEngine(t, 3, []Edge{{From: 0, To: 1}, {From: 0, To: 2}}, Options{C: 0.8, K: 30})
	first, err := e.AddNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 || e.N() != 5 {
		t.Fatalf("first=%d N=%d", first, e.N())
	}
	// Padded matrix must be the exact fixed point of the padded graph.
	fresh := mustEngine(t, 5, []Edge{{From: 0, To: 1}, {From: 0, To: 2}}, Options{C: 0.8, K: 30})
	if d := matrix.MaxAbsDiff(e.Similarities(), fresh.Similarities()); d > 1e-12 {
		t.Fatalf("padding drifted %g from rebuild", d)
	}
	// And the engine keeps updating incrementally across the growth.
	if _, err := e.Insert(0, 3); err != nil {
		t.Fatal(err)
	}
	fresh2 := mustEngine(t, 5, []Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3}}, Options{C: 0.8, K: 30})
	if d := matrix.MaxAbsDiff(e.Similarities(), fresh2.Similarities()); d > 1e-6 {
		t.Fatalf("post-growth update drifted %g", d)
	}
}

func TestEngineAddNodesNegative(t *testing.T) {
	e := mustEngine(t, 2, nil, Options{})
	if _, err := e.AddNodes(-1); err == nil {
		t.Fatal("want error for negative count")
	}
}

func TestEngineAddNodesZero(t *testing.T) {
	e := mustEngine(t, 2, []Edge{{From: 0, To: 1}}, Options{})
	before := e.Similarities()
	if _, err := e.AddNodes(0); err != nil {
		t.Fatal(err)
	}
	if e.N() != 2 || matrix.MaxAbsDiff(before, e.Similarities()) != 0 {
		t.Fatal("AddNodes(0) must be a no-op")
	}
}

func TestSingleSourceScores(t *testing.T) {
	edges := []Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 2}}
	col, err := SingleSourceScores(4, edges, 1, Options{C: 0.8, K: 20})
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, 4, edges, Options{C: 0.8, K: 20})
	for b := 0; b < 4; b++ {
		if math.Abs(col[b]-eng.Similarity(1, b)) > 1e-10 {
			t.Fatalf("col[%d] = %v, want %v", b, col[b], eng.Similarity(1, b))
		}
	}
	if _, err := SingleSourceScores(4, edges, 9, Options{}); err == nil {
		t.Fatal("want error for out-of-range query")
	}
	if _, err := SingleSourceScores(4, edges, 0, Options{C: 3}); err == nil {
		t.Fatal("want error for bad options")
	}
}
