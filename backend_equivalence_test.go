package simrank

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
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
// packed engine at Workers 1 and 4. S is exactly symmetric on both — the
// batch kernel mirrors its upper triangle, which is all packed keeps —
// and every update reads and writes the same values in the same order,
// so the gate is bit equality: whole matrices, pairs and top-k lists.
// Inc-SR prunes, hence the subtest names; the seeds take len(name).
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

	compare := func(step int) {
		t.Helper()
		if d := matrix.MaxAbsDiff(de.Similarities(), pe.Similarities()); d != 0 {
			t.Fatalf("step %d: packed drifted %g from dense (n=%d)", step, d, model.n)
		}
		// Query surface: single pairs, per-node top-k and global top-k,
		// pair for pair: equal bits leave no tie to break differently.
		a, b := rng.Intn(de.N()), rng.Intn(de.N())
		if ds, ps := de.Similarity(a, b), pe.Similarity(a, b); ds != ps {
			t.Fatalf("step %d: Similarity(%d,%d) dense %v, packed %v", step, a, b, ds, ps)
		}
		if dk, pk := de.TopKFor(a, 5), pe.TopKFor(a, 5); !slices.Equal(dk, pk) {
			t.Fatalf("step %d: TopKFor(%d)\n dense  %v\n packed %v", step, a, dk, pk)
		}
		if dg, pg := de.TopK(4), pe.TopK(4); !slices.Equal(dg, pg) {
			t.Fatalf("step %d: TopK\n dense  %v\n packed %v", step, dg, pg)
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

// fuzzStream encodes a FuzzExactBackendsAgree input: the node count, the
// starting edges as pair bytes, then the op bytes.
func fuzzStream(n int, edges []byte, ops ...byte) []byte {
	out := append([]byte{byte(n - 2), byte(len(edges))}, edges...)
	return append(out, ops...)
}

// FuzzExactBackendsAgree drives a dense and a packed engine in lockstep
// through a stream of Apply, ApplyBatch, AddNodes and Recompute decoded
// from the input, and requires the two to agree bit for bit after every
// call: equal errors, == on every Similarity(a, b), and equal TopK and
// TopKFor pairs. Both hold the same exactly symmetric S, so nothing is
// left to round differently.
//
// Input format: byte 0 picks n = 2 + b%11; byte 1 counts the starting
// edge bytes that follow, each naming the pair p = b%n² as (p/n, p%n)
// (duplicates are dropped). Each op byte b then selects by b%6:
//
//   - 0, 1, 2: Apply on the edge named by the next byte, inserting it
//     when absent and deleting it when present; b ≥ 128 inverts that, an
//     update both engines must reject the same way;
//   - 3: ApplyBatch of 1 + (next byte)%12 updates on the edges named by
//     the bytes after it; b ≥ 128 inverts the last one, failing the
//     batch atomically;
//   - 4: AddNodes(1 + (b>>3)%2), while n stays at most 16;
//   - 5: Recompute.
func FuzzExactBackendsAgree(f *testing.F) {
	// n = 10 with 20 edges: the recompute crossover is 0.15·|E| = 3, so
	// the two-update batch folds incrementally and the six-update one
	// recomputes.
	edges := []byte{1, 12, 23, 34, 45, 56, 67, 78, 89, 90, 2, 13, 24, 35, 46, 57, 68, 79, 80, 91}
	f.Add(fuzzStream(10, edges, 0, 33, 1, 44, 2, 55, 3, 1, 3, 14, 5, 3, 5, 4, 15, 26, 37, 48, 59, 10, 0, 99, 4, 0, 110))
	f.Add(fuzzStream(10, edges, 3, 6, 7, 18, 29, 31, 42, 53, 64, 12, 4, 0, 99, 3, 2, 99, 98, 97, 5, 1, 12))
	// Rejected updates and batches, then a crossover on a sparse graph.
	f.Add(fuzzStream(6, []byte{1, 8, 15}, 128, 1, 129, 1, 0, 2, 3, 1, 9, 16, 10, 5, 0, 1, 0, 40))
	f.Add(fuzzStream(2, nil, 0, 1, 0, 2, 4, 12, 3, 3, 0, 1, 5, 6, 7))

	f.Fuzz(func(t *testing.T, data []byte) {
		// next reads the input one byte at a time; an exhausted input
		// reads as the end of the stream.
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		b, _ := next()
		n := 2 + int(b)%11
		model := &streamModel{n: n, edges: make(map[Edge]bool)}
		edge := func(b byte) Edge {
			p := int(b) % (model.n * model.n)
			return Edge{From: p / model.n, To: p % model.n}
		}
		count, _ := next()
		for i := 0; i < int(count); i++ {
			b, ok := next()
			if !ok {
				break
			}
			model.edges[edge(b)] = true
		}
		opts := Options{K: 10, Workers: 1}
		denseOpts, packedOpts := opts, opts
		denseOpts.Backend = BackendDense
		packedOpts.Backend = BackendPacked
		de, err := NewEngine(n, model.edgeList(), denseOpts)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := NewEngine(n, model.edgeList(), packedOpts)
		if err != nil {
			t.Fatal(err)
		}
		// update names the next update on e: an insert when e is absent
		// from the stream's state so far, a delete when present.
		update := func(e Edge, state map[Edge]bool, invert bool) Update {
			return Update{Edge: e, Insert: state[e] == invert}
		}
		compare := func(op int, errD, errP error) {
			t.Helper()
			if (errD == nil) != (errP == nil) || errD != nil && errD.Error() != errP.Error() {
				t.Fatalf("op %d: dense error %v, packed error %v", op, errD, errP)
			}
			for a := 0; a < de.N(); a++ {
				for b := 0; b < de.N(); b++ {
					if ds, ps := de.Similarity(a, b), pe.Similarity(a, b); ds != ps {
						t.Fatalf("op %d: Similarity(%d,%d) dense %v, packed %v", op, a, b, ds, ps)
					}
				}
				if dk, pk := de.TopKFor(a, 3), pe.TopKFor(a, 3); !slices.Equal(dk, pk) {
					t.Fatalf("op %d: TopKFor(%d)\n dense  %v\n packed %v", op, a, dk, pk)
				}
			}
			if dg, pg := de.TopK(6), pe.TopK(6); !slices.Equal(dg, pg) {
				t.Fatalf("op %d: TopK\n dense  %v\n packed %v", op, dg, pg)
			}
		}
		compare(-1, nil, nil)
		for op := 0; op < 48; op++ {
			b, ok := next()
			if !ok {
				return
			}
			invert := b >= 128
			var errD, errP error
			switch b % 6 {
			case 0, 1, 2:
				p, ok := next()
				if !ok {
					return
				}
				up := update(edge(p), model.edges, invert)
				_, errD = de.Apply(up)
				_, errP = pe.Apply(up)
				if errD == nil {
					model.edges[up.Edge] = up.Insert
				}
			case 3:
				size, ok := next()
				if !ok {
					return
				}
				after := maps.Clone(model.edges)
				ups := make([]Update, 1+int(size)%12)
				for i := range ups {
					p, ok := next()
					if !ok {
						return
					}
					ups[i] = update(edge(p), after, invert && i == len(ups)-1)
					after[ups[i].Edge] = ups[i].Insert
				}
				errD = de.ApplyBatch(ups)
				errP = pe.ApplyBatch(ups)
				if errD == nil {
					model.edges = after
				}
			case 4:
				count := 1 + int(b>>3)%2
				if model.n+count > 16 {
					continue
				}
				_, errD = de.AddNodes(count)
				_, errP = pe.AddNodes(count)
				model.n += count
			case 5:
				de.Recompute()
				pe.Recompute()
			}
			compare(op, errD, errP)
		}
	})
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
	// Content check on a sample of pairs (a full n² sweep is wasteful):
	// both stores hold the kernel's exactly symmetric S, bit for bit.
	for trial := 0; trial < 2000; trial++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if ds, ps := de.Similarity(a, b), pe.Similarity(a, b); ds != ps {
			t.Fatalf("packed Similarity(%d,%d) = %v, dense %v", a, b, ps, ds)
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
