package simrank

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// twoComponentEngine builds a small engine: nodes 0–3 wired as the
// left component, nodes 4–7 as the right. SimRank never couples the
// components, which is what makes invalidation precision observable.
func twoComponentEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	edges := []Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0}, {From: 0, To: 2},
		{From: 4, To: 5}, {From: 5, To: 6}, {From: 6, To: 7}, {From: 7, To: 4}, {From: 4, To: 6},
	}
	eng, err := NewEngine(8, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// Queries must never panic: out-of-range and negative nodes yield the
// zero result, non-positive k yields nil — on the Engine and through the
// ConcurrentEngine wrappers. TopKFor(99, 5) on a 4-node engine was a
// reproducible slice-bounds panic before the guard.
func TestQueriesNeverPanic(t *testing.T) {
	eng, err := NewEngine(4, []Edge{{From: 0, To: 2}, {From: 1, To: 2}, {From: 2, To: 3}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ceng := WrapEngine(eng)

	for _, a := range []int{-1, -99, 4, 99} {
		if got := eng.TopKFor(a, 5); got != nil {
			t.Fatalf("TopKFor(%d, 5) = %v, want nil", a, got)
		}
		if got := ceng.TopKFor(a, 5); got != nil {
			t.Fatalf("concurrent TopKFor(%d, 5) = %v, want nil", a, got)
		}
		if got := eng.Similarity(a, 0); got != 0 {
			t.Fatalf("Similarity(%d, 0) = %v, want 0", a, got)
		}
		if got := ceng.Similarity(0, a); got != 0 {
			t.Fatalf("concurrent Similarity(0, %d) = %v, want 0", a, got)
		}
		if eng.HasEdge(a, 2) || ceng.HasEdge(2, a) {
			t.Fatalf("HasEdge with node %d reported true", a)
		}
	}
	for _, k := range []int{0, -1} {
		if got := eng.TopK(k); got != nil {
			t.Fatalf("TopK(%d) = %v, want nil", k, got)
		}
		if got := eng.TopKFor(1, k); got != nil {
			t.Fatalf("TopKFor(1, %d) = %v, want nil", k, got)
		}
	}
	// Huge k is clamped to the candidate count, not trusted as a heap size.
	if got := eng.TopK(1 << 30); len(got) > 4*3/2 {
		t.Fatalf("TopK(huge) returned %d pairs", len(got))
	}
}

// A huge k is clamped to the row, never used as a slice bound: on every
// backend, Engine and ConcurrentEngine answer TopKFor(a, MaxInt) and
// TopKFor(a, MaxInt/2+1) exactly as TopKFor(a, n). The approx top-k sized
// its refinement pass as 2k, which overflowed and panicked.
func TestTopKForHugeK(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := randTestGraph(rng, 30, 120)
	for _, b := range []Backend{BackendDense, BackendPacked, BackendApprox} {
		opts := Options{Backend: b, ApproxWalks: 64}
		eng, err := NewEngine(g.N(), g.Edges(), opts)
		if err != nil {
			t.Fatal(err)
		}
		ceng, err := NewConcurrentEngine(g.N(), g.Edges(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < g.N(); a++ {
			want := eng.TopKFor(a, g.N())
			for _, k := range []int{math.MaxInt, math.MaxInt/2 + 1} {
				if got := eng.TopKFor(a, k); !slices.Equal(got, want) {
					t.Fatalf("%s: TopKFor(%d, %d) = %v, want %v", b, a, k, got, want)
				}
				if got := ceng.TopKFor(a, k); !slices.Equal(got, want) {
					t.Fatalf("%s: concurrent TopKFor(%d, %d) = %v, want %v", b, a, k, got, want)
				}
			}
		}
	}
}

// A warm cached TopKFor must do zero similarity-row scans: RowMisses
// counts the scans actually performed and must hold still while repeat
// queries are served, and cached answers must equal fresh scans exactly.
func TestTopKForWarmCacheDoesZeroScans(t *testing.T) {
	cached := twoComponentEngine(t, Options{TopKCacheRows: 16})
	uncached := twoComponentEngine(t, Options{})

	for a := 0; a < 8; a++ { // cold pass: 8 misses fill the cache
		cached.TopKFor(a, 3)
	}
	if st := cached.CacheStats(); st.RowMisses != 8 || st.RowHits != 0 {
		t.Fatalf("cold pass stats %+v; want 8 misses, 0 hits", st)
	}
	for pass := 0; pass < 3; pass++ { // warm passes: zero scans
		for a := 0; a < 8; a++ {
			got, want := cached.TopKFor(a, 3), uncached.TopKFor(a, 3)
			if len(got) != len(want) {
				t.Fatalf("row %d: cached %v != fresh %v", a, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d entry %d: cached %+v != fresh %+v", a, i, got[i], want[i])
				}
			}
		}
	}
	st := cached.CacheStats()
	if st.RowMisses != 8 {
		t.Fatalf("warm passes performed %d scans beyond the cold 8", st.RowMisses-8)
	}
	if st.RowHits != 24 {
		t.Fatalf("RowHits = %d, want 24", st.RowHits)
	}
}

// Dirty-row invalidation is surgical: an update inside one component
// must not evict cached rows of the other. The left component's rows
// keep serving as hits; the updated component's rows miss and rescan.
func TestCacheInvalidationFollowsDirtyRows(t *testing.T) {
	eng := twoComponentEngine(t, Options{TopKCacheRows: 16})
	for a := 0; a < 8; a++ {
		eng.TopKFor(a, 3)
	}
	eng.TopK(4)
	base := eng.CacheStats()

	if _, err := eng.Insert(5, 7); err != nil { // right component only
		t.Fatal(err)
	}
	for _, r := range eng.LastStats().DirtyRows {
		if r < 4 {
			t.Fatalf("update in right component dirtied left row %d", r)
		}
	}

	eng.TopKFor(0, 3) // untouched row: must still be cached
	if st := eng.CacheStats(); st.RowHits != base.RowHits+1 || st.RowMisses != base.RowMisses {
		t.Fatalf("left row rescanned after right-component update: %+v vs %+v", st, base)
	}
	eng.TopKFor(5, 3) // dirty row: must rescan
	if st := eng.CacheStats(); st.RowMisses != base.RowMisses+1 {
		t.Fatalf("dirty row served stale: %+v", st)
	}
	if st := eng.CacheStats(); st.InvalidatedRows == 0 {
		t.Fatal("no rows recorded invalidated")
	}
	// The global top-k is dropped by any dirty write.
	eng.TopK(4)
	if st := eng.CacheStats(); st.GlobalMisses != base.GlobalMisses+1 {
		t.Fatal("global served stale after update")
	}
}

// Recompute and AddNodes flush wholesale; snapshots restore with the
// cache off (it is not persisted), and ConfigureRestored enables it.
func TestCacheLifecycle(t *testing.T) {
	eng := twoComponentEngine(t, Options{TopKCacheRows: 16})
	eng.TopKFor(0, 3)
	eng.Recompute()
	if st := eng.CacheStats(); st.Flushes != 1 || st.Rows != 0 {
		t.Fatalf("Recompute did not flush: %+v", st)
	}
	if _, err := eng.AddNodes(2); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Flushes != 2 {
		t.Fatalf("AddNodes did not flush: %+v", st)
	}

	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored.TopKFor(0, 3)
	if st := restored.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("restored engine has a live cache: %+v", st)
	}
	restored.ConfigureRestored(0, 8)
	restored.TopKFor(0, 3)
	restored.TopKFor(0, 3)
	if st := restored.CacheStats(); st.RowMisses != 1 || st.RowHits != 1 {
		t.Fatalf("re-enabled cache not serving: %+v", st)
	}
	restored.ConfigureRestored(0, 0)
	if st := restored.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled cache still reporting: %+v", st)
	}
}

// Mutating a slice returned by a cached query must not corrupt later
// answers — the cache hands out copies.
func TestCachedResultsAreCallerOwned(t *testing.T) {
	eng := twoComponentEngine(t, Options{TopKCacheRows: 16})
	first := eng.TopKFor(0, 3) // miss: stored and cloned
	want := append([]Pair(nil), first...)
	first[0] = Pair{A: -1, B: -1, Score: -1}
	second := eng.TopKFor(0, 3) // hit: must be unaffected
	for i := range second {
		if second[i] != want[i] {
			t.Fatalf("cached answer corrupted by caller mutation: %v, want %v", second, want)
		}
	}
	second[0].Score = 42
	third := eng.TopKFor(0, 3)
	if third[0].Score == 42 {
		t.Fatal("hit-path slice aliases the cache")
	}

	g := eng.TopK(2)
	g[0] = Pair{A: -9, B: -9, Score: -9}
	if again := eng.TopK(2); again[0] == g[0] {
		t.Fatal("global hit-path slice aliases the cache")
	}
}

// Concurrent readers hammering cached queries while a writer streams
// updates: run under -race. Answers are checked for internal consistency
// (every returned pair names the queried row).
func TestConcurrentEngineCachedReadsUnderWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randTestGraph(rng, 24, 96)
	ceng, err := NewConcurrentEngine(g.N(), g.Edges(), Options{K: 8, TopKCacheRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := (w*7 + i) % 24
				for _, p := range ceng.TopKFor(a, 5) {
					if p.A != a {
						panic("pair from a different row")
					}
				}
				ceng.TopK(5)
			}
		}(w)
	}
	edges := g.Edges()[:6]
	for pass := 0; pass < 20; pass++ {
		e := edges[pass%len(edges)]
		if _, err := ceng.Delete(e.From, e.To); err != nil {
			t.Fatal(err)
		}
		if _, err := ceng.Insert(e.From, e.To); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	st := ceng.CacheStats()
	if st.RowHits+st.RowMisses == 0 {
		t.Fatal("no cached reads recorded")
	}
}

// DirtyRows returned through the concurrent facade must be a detached
// copy: with the plain Engine's aliasing semantics, the next writer
// would rewrite the slice a previous caller still holds — a data race
// once the lock is gone. Sequential calls make the corruption
// deterministic to detect: the second update resets and rewrites the
// workspace scratch the first slice would otherwise alias.
func TestConcurrentUpdateStatsAreDetached(t *testing.T) {
	eng := twoComponentEngine(t, Options{})
	ceng := WrapEngine(eng)
	st1, err := ceng.Insert(5, 7) // right component: dirty rows all ≥ 4
	if err != nil {
		t.Fatal(err)
	}
	got := st1.DirtyRows
	snapshot := append([]int(nil), got...)
	if len(snapshot) == 0 {
		t.Fatal("insert dirtied no rows")
	}
	if _, err := ceng.Insert(1, 3); err != nil { // left component: rows < 4
		t.Fatal(err)
	}
	for i := range snapshot {
		if got[i] != snapshot[i] {
			t.Fatalf("DirtyRows rewritten by the next update: %v, want %v", got, snapshot)
		}
	}
}
