package simrank

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// testBackend returns the store backend the root suite should exercise:
// dense unless the SIMRANK_BACKEND environment variable overrides it —
// the hook CI's backend matrix uses to replay every root property test
// against the packed store.
func testBackend(tb testing.TB) Backend {
	raw := os.Getenv("SIMRANK_BACKEND")
	b, err := ParseBackend(raw)
	if err != nil {
		tb.Fatalf("SIMRANK_BACKEND: %v", err)
	}
	return b
}

// withTestBackend stamps the suite's backend onto opts.
func withTestBackend(tb testing.TB, o Options) Options {
	o.Backend = testBackend(tb)
	return o
}

// TestBackendEquivalenceRandomStreams is the cross-backend property
// harness: the same random stream of Apply, ApplyBatch, AddNodes and
// Recompute, with interleaved queries, runs in lockstep on a dense and a
// packed engine at Workers 1 and 4. The packed store canonicalizes the
// (up-to-rounding symmetric) kernel output on its upper triangle, so the
// gate is 1e-12, the same bar the pipeline equivalence test holds the
// incremental machinery to. Inc-SR prunes, hence the subtest names; the
// seeds take len(name).
func TestBackendEquivalenceRandomStreams(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := Options{K: 60, Workers: workers}
		name := fmt.Sprintf("pruning=true/workers=%d", workers)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(900 + int64(workers) + int64(len(name))))
			for trial := 0; trial < 3; trial++ {
				runBackendLockstep(t, rng, opts)
			}
		})
	}
}

func runBackendLockstep(t *testing.T, rng *rand.Rand, opts Options) {
	t.Helper()
	model := &streamModel{n: 5 + rng.Intn(5), edges: make(map[Edge]bool)}
	for i := 0; i < model.n; i++ {
		for j := 0; j < model.n; j++ {
			if i != j && rng.Float64() < 0.2 {
				model.edges[Edge{From: i, To: j}] = true
			}
		}
	}
	denseOpts, packedOpts := opts, opts
	denseOpts.Backend = BackendDense
	packedOpts.Backend = BackendPacked
	de, err := NewEngine(model.n, model.edgeList(), denseOpts)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewEngine(model.n, model.edgeList(), packedOpts)
	if err != nil {
		t.Fatal(err)
	}

	const tol = 1e-12
	compare := func(step int) {
		t.Helper()
		if d := matrix.MaxAbsDiff(de.Similarities(), pe.Similarities()); d > tol {
			t.Fatalf("step %d: packed drifted %g from dense (n=%d)", step, d, model.n)
		}
		// Query surface: single pairs, per-node top-k scores, global
		// top-k scores. Rankings can legitimately differ on sub-tol ties,
		// so scores (rank by rank) carry the comparison.
		a, b := rng.Intn(de.N()), rng.Intn(de.N())
		if d := math.Abs(de.Similarity(a, b) - pe.Similarity(a, b)); d > tol {
			t.Fatalf("step %d: Similarity(%d,%d) differs by %g", step, a, b, d)
		}
		dk, pk := de.TopKFor(a, 5), pe.TopKFor(a, 5)
		if len(dk) != len(pk) {
			t.Fatalf("step %d: TopKFor lengths %d vs %d", step, len(dk), len(pk))
		}
		for i := range dk {
			if d := math.Abs(dk[i].Score - pk[i].Score); d > tol {
				t.Fatalf("step %d: TopKFor rank %d scores differ by %g", step, i, d)
			}
		}
		dg, pg := de.TopK(4), pe.TopK(4)
		if len(dg) != len(pg) {
			t.Fatalf("step %d: TopK lengths %d vs %d", step, len(dg), len(pg))
		}
		for i := range dg {
			if d := math.Abs(dg[i].Score - pg[i].Score); d > tol {
				t.Fatalf("step %d: TopK rank %d scores differ by %g", step, i, d)
			}
		}
	}

	for step := 0; step < 12; step++ {
		switch rng.Intn(5) {
		case 0, 1:
			up := model.randomUpdate(rng)
			if _, err := de.Apply(up); err != nil {
				t.Fatalf("dense step %d %v: %v", step, up, err)
			}
			if _, err := pe.Apply(up); err != nil {
				t.Fatalf("packed step %d %v: %v", step, up, err)
			}
		case 2:
			k := 1 + rng.Intn(6)
			ups := make([]Update, k)
			for i := range ups {
				ups[i] = model.randomUpdate(rng)
			}
			if err := de.ApplyBatch(ups); err != nil {
				t.Fatalf("dense batch step %d: %v", step, err)
			}
			if err := pe.ApplyBatch(ups); err != nil {
				t.Fatalf("packed batch step %d: %v", step, err)
			}
		case 3:
			count := 1 + rng.Intn(2)
			if _, err := de.AddNodes(count); err != nil {
				t.Fatal(err)
			}
			if _, err := pe.AddNodes(count); err != nil {
				t.Fatal(err)
			}
			model.n += count
		case 4:
			de.Recompute()
			pe.Recompute()
		}
		compare(step)
	}
}

// Snapshot round-trips must be bit-identical per backend:
// write → read → write yields the same bytes, and for the exact
// backends the restored similarities are the original bits.
func TestSnapshotRoundTripPerBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randTestGraph(rng, 30, 120)
	for _, backend := range []Backend{BackendDense, BackendPacked, BackendApprox} {
		t.Run(string(backend), func(t *testing.T) {
			opts := Options{C: 0.6, K: 10, Backend: backend, ApproxWalks: 32, ApproxSeed: 9}
			eng, err := NewEngine(g.N(), g.Edges(), opts)
			if err != nil {
				t.Fatal(err)
			}
			var first bytes.Buffer
			if err := eng.WriteSnapshot(&first); err != nil {
				t.Fatal(err)
			}
			restored, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if restored.Backend() != backend {
				t.Fatalf("restored backend %q, want %q", restored.Backend(), backend)
			}
			var second bytes.Buffer
			if err := restored.WriteSnapshot(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("write→read→write is not byte-identical (%d vs %d bytes)", first.Len(), second.Len())
			}
			if backend == BackendApprox {
				ro := restored.Options()
				if ro.ApproxWalks != 32 || ro.ApproxSeed != 9 {
					t.Fatalf("approx params not persisted: %+v", ro)
				}
				return
			}
			a, b := eng.Similarities(), restored.Similarities()
			for i, v := range a.Data {
				if v != b.Data[i] {
					t.Fatalf("restored similarities differ at %d: %v vs %v", i, v, b.Data[i])
				}
			}
		})
	}
}

// A packed snapshot carries the triangle, not the square: the file
// should come in at roughly half a dense snapshot of the same engine.
func TestPackedSnapshotHalvesFile(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g := randTestGraph(rng, 60, 240)
	sizes := map[Backend]int{}
	for _, backend := range []Backend{BackendDense, BackendPacked} {
		eng, err := NewEngine(g.N(), g.Edges(), Options{C: 0.6, K: 10, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		sizes[backend] = buf.Len()
	}
	if ratio := float64(sizes[BackendPacked]) / float64(sizes[BackendDense]); ratio > 0.6 {
		t.Fatalf("packed snapshot is %.2f of dense (%d vs %d bytes), want ≤ 0.6",
			ratio, sizes[BackendPacked], sizes[BackendDense])
	}
}

// The packed backend keeps the hot-path guarantee: a warm Apply performs
// zero heap allocations — the packed store's Row view is one reusable
// scratch buffer and AddSym is pure index arithmetic.
func TestEngineApplyZeroAllocsPacked(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewSource(5))
	g := randTestGraph(rng, 40, 160)
	eng, err := NewEngine(g.N(), g.Edges(), Options{C: 0.6, K: 10, Backend: BackendPacked})
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()[:4]
	toggle := func() {
		for _, e := range edges {
			if _, err := eng.Delete(e.From, e.To); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Insert(e.From, e.To); err != nil {
				t.Fatal(err)
			}
		}
	}
	toggle() // warm up
	if allocs := testing.AllocsPerRun(20, toggle); allocs != 0 {
		t.Fatalf("warm packed Apply allocated %v times per toggle, want 0", allocs)
	}
}

// The packed engine reports about half the dense store bytes at the
// acceptance size n = 2000, with the identical similarity content.
func TestPackedStoreBytesAcceptance(t *testing.T) {
	const n = 2000
	var edges []Edge
	rng := rand.New(rand.NewSource(80))
	for len(edges) < 4000 {
		edges = append(edges, Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}
	de, err := NewEngine(n, edges, Options{C: 0.6, K: 5, Backend: BackendDense})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewEngine(n, edges, Options{C: 0.6, K: 5, Backend: BackendPacked})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(pe.StoreMemBytes()) / float64(de.StoreMemBytes())
	if ratio > 0.55 {
		t.Fatalf("packed store is %.4f of dense at n=%d, want ≤ 0.55", ratio, n)
	}
	// Content check on a sample of pairs (a full n² sweep is wasteful).
	for trial := 0; trial < 2000; trial++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if d := math.Abs(de.Similarity(a, b) - pe.Similarity(a, b)); d > 1e-12 {
			t.Fatalf("packed Similarity(%d,%d) differs by %g", a, b, d)
		}
	}
}

// The approx backend accepts the whole graph-mutation surface — Apply,
// ApplyBatch, AddNodes, Recompute — absorbing each through incremental
// walk repair, while the surfaces that require a materialized matrix
// (Similarities, global TopK) still answer nil. Bad updates get the
// same typed rejection as the exact backends.
func TestApproxBackendWritable(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g := randTestGraph(rng, 20, 80)
	eng, err := NewEngine(g.N(), g.Edges(), Options{Backend: BackendApprox, ApproxWalks: 32})
	if err != nil {
		t.Fatal(err)
	}
	from, to := 0, 1
	for g.HasEdge(from, to) {
		to++
	}
	st, err := eng.Insert(from, to)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if eng.Epoch() != 1 {
		t.Fatalf("epoch after Insert = %d, want 1", eng.Epoch())
	}
	if len(st.DirtyRows) == 0 {
		t.Fatal("inserting an in-edge of a live node should dirty some walk rows")
	}
	// Duplicate insert: same typed rejection as the exact backends.
	if _, err := eng.Insert(from, to); err == nil {
		t.Fatal("duplicate insert accepted")
	} else {
		var bad *core.ErrBadUpdate
		if !errors.As(err, &bad) {
			t.Fatalf("duplicate insert error = %v, want *core.ErrBadUpdate", err)
		}
	}
	if err := eng.ApplyBatch([]Update{
		{Edge: Edge{From: from, To: to}, Insert: false},
		{Edge: Edge{From: from, To: to}, Insert: true},
	}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	oldN := eng.N()
	first, err := eng.AddNodes(2)
	if err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	if first != oldN || eng.N() != oldN+2 {
		t.Fatalf("AddNodes: first=%d n=%d, want %d and %d", first, eng.N(), oldN, oldN+2)
	}
	// New ids are immediately writable.
	if _, err := eng.Insert(0, first); err != nil {
		t.Fatalf("Insert to a new node: %v", err)
	}
	before := eng.Epoch()
	eng.Recompute()
	if eng.Epoch() != before+1 {
		t.Fatal("Recompute on approx must commit an epoch (full resample)")
	}
	if eng.Similarities() != nil {
		t.Fatal("approx Similarities should be nil")
	}
	if eng.TopK(3) != nil {
		t.Fatal("approx TopK should be nil")
	}
	if s := eng.Similarity(0, 0); s != 1 {
		t.Fatalf("approx self-similarity %v, want 1 (iterative form)", s)
	}
	if ps := eng.TopKFor(0, 5); len(ps) > 5 {
		t.Fatalf("approx TopKFor returned %d pairs for k=5", len(ps))
	}
	if _, stderr := eng.SimilarityStderr(0, 1); stderr < 0 {
		t.Fatalf("negative stderr %v", stderr)
	}
}

// Sampled top-k must bypass the query cache: a sampled list shorter
// than k is not an exhausted row (weak candidates refine to zero and
// drop), so caching it would permanently truncate every larger-k answer
// — approx rows are never invalidated.
func TestApproxTopKForBypassesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	g := randTestGraph(rng, 30, 120)
	eng, err := NewEngine(g.N(), g.Edges(), Options{Backend: BackendApprox, ApproxWalks: 64, TopKCacheRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	small := eng.TopKFor(2, 1)
	big := eng.TopKFor(2, g.N())
	if len(big) < len(small) {
		t.Fatalf("k-upgrade shrank the answer: %d then %d pairs", len(small), len(big))
	}
	if cs := eng.CacheStats(); cs.RowHits != 0 && cs.RowMisses == 0 {
		t.Fatalf("sampled top-k served from cache: %+v", cs)
	}
	if len(big) <= len(small) && len(small) == 1 && len(big) == 1 && g.N() > 2 {
		// With 64 walks on a 30-node graph at least a few neighbors score.
		t.Fatalf("full-k sampled query returned only %d pair(s)", len(big))
	}
}

// A walk budget the engine accepts must be a budget its snapshot can
// restore: the construction bound and the restore bound are one
// constant (simstore.MaxWalks), and budgets past it are rejected up
// front instead of producing an unrestorable snapshot. The round trip
// runs at a CI-friendly budget — with stored walks the maximum budget
// is a RAM decision (n·W·(L+1) int32 slots), not a correctness one,
// and acceptance ⇒ restorability is carried by the shared constant.
func TestApproxWalksBoundMatchesSnapshot(t *testing.T) {
	if _, err := NewEngine(4, nil, Options{Backend: BackendApprox, ApproxWalks: 2_000_000}); err == nil {
		t.Fatal("over-limit ApproxWalks accepted at construction")
	}
	rng := rand.New(rand.NewSource(83))
	g := randTestGraph(rng, 10, 30)
	eng, err := NewEngine(g.N(), g.Edges(), Options{Backend: BackendApprox, ApproxWalks: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err != nil {
		t.Fatalf("accepted walk budget failed to restore: %v", err)
	}
}
