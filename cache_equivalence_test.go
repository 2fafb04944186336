package simrank

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestCacheEquivalenceRandomStreams is the property test for the query
// cache: a random stream of mixed Apply / ApplyBatch / AddNodes /
// Recompute, interleaved with TopK / TopKFor / Similarity queries, must
// produce bit-identical answers with the cache on and off at
// Workers ∈ {1, 4}. The cached engine runs with a
// deliberately tiny capacity so LRU eviction, k-upgrades (a larger k
// after a smaller one) and k-prefix hits are all exercised, and every
// query is asked twice so the second answer comes from the warm cache.
func TestCacheEquivalenceRandomStreams(t *testing.T) {
	for _, workers := range []int{1, 4} {
		// The suite's backend (dense, or packed under CI's
		// SIMRANK_BACKEND matrix entry) carries the whole property:
		// caching must be bit-transparent on every exact store.
		opts := withTestBackend(t, Options{K: 20, Workers: workers})
		// Inc-SR prunes, hence the name; the seed takes len(name).
		name := fmt.Sprintf("pruning=true/workers=%d", workers)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(workers)*1000 + int64(len(name))))
			for trial := 0; trial < 3; trial++ {
				runCachedStream(t, rng, opts)
			}
		})
	}
}

func runCachedStream(t *testing.T, rng *rand.Rand, opts Options) {
	t.Helper()
	model := &streamModel{n: 6 + rng.Intn(5), edges: make(map[Edge]bool)}
	for i := 0; i < model.n; i++ {
		for j := 0; j < model.n; j++ {
			if i != j && rng.Float64() < 0.25 {
				model.edges[Edge{From: i, To: j}] = true
			}
		}
	}
	plain, err := NewEngine(model.n, model.edgeList(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cachedOpts := opts
	cachedOpts.TopKCacheRows = 4 // tiny: forces LRU eviction under query load
	cached, err := NewEngine(model.n, model.edgeList(), cachedOpts)
	if err != nil {
		t.Fatal(err)
	}

	// compare asks both engines the same queries, twice each (cold then
	// warm), demanding bitwise-equal pairs. The k schedule walks down
	// then up so prefix hits and k-upgrades both happen against entries
	// cached moments earlier.
	compare := func(step int) {
		t.Helper()
		for rep := 0; rep < 2; rep++ {
			for _, k := range []int{3, 1, model.n + 3} {
				want, got := plain.TopK(k), cached.TopK(k)
				if len(want) != len(got) {
					t.Fatalf("step %d TopK(%d): cached %d pairs, want %d", step, k, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("step %d TopK(%d)[%d]: cached %+v, want %+v", step, k, i, got[i], want[i])
					}
				}
				for _, a := range []int{0, rng.Intn(model.n), model.n - 1} {
					want, got := plain.TopKFor(a, k), cached.TopKFor(a, k)
					if len(want) != len(got) {
						t.Fatalf("step %d TopKFor(%d,%d): cached %d pairs, want %d", step, a, k, len(got), len(want))
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("step %d TopKFor(%d,%d)[%d]: cached %+v, want %+v", step, a, k, i, got[i], want[i])
						}
					}
				}
			}
			a, b := rng.Intn(model.n), rng.Intn(model.n)
			if w, g := plain.Similarity(a, b), cached.Similarity(a, b); w != g {
				t.Fatalf("step %d Similarity(%d,%d): cached %v, want %v", step, a, b, g, w)
			}
		}
	}

	compare(-1)
	for step := 0; step < 16; step++ {
		switch op := rng.Intn(6); op {
		case 0, 1: // single incremental update
			up := model.randomUpdate(rng)
			if _, err := plain.Apply(up); err != nil {
				t.Fatalf("step %d %v: %v", step, up, err)
			}
			if _, err := cached.Apply(up); err != nil {
				t.Fatalf("step %d %v (cached): %v", step, up, err)
			}
		case 2, 3: // batch straddling the recompute crossover
			k := 1 + rng.Intn(6)
			ups := make([]Update, k)
			for i := range ups {
				ups[i] = model.randomUpdate(rng)
			}
			if err := plain.ApplyBatch(ups); err != nil {
				t.Fatalf("step %d batch: %v", step, err)
			}
			if err := cached.ApplyBatch(ups); err != nil {
				t.Fatalf("step %d batch (cached): %v", step, err)
			}
		case 4: // grow, then keep querying across the boundary
			count := 1 + rng.Intn(2)
			if _, err := plain.AddNodes(count); err != nil {
				t.Fatal(err)
			}
			if _, err := cached.AddNodes(count); err != nil {
				t.Fatal(err)
			}
			model.n += count
		case 5:
			plain.Recompute()
			cached.Recompute()
		}
		compare(step)
	}

	// The stream must actually have exercised the cache, not bypassed it.
	// Except on approx, where bypassing IS the contract (a sampled list
	// shorter than k is not an exhausted row, so caching it would
	// truncate larger-k answers); there the property above checked that
	// the bypass is bit-transparent, and the stats must stay empty.
	st := cached.CacheStats()
	if opts.Backend == BackendApprox {
		if st.RowHits != 0 || st.RowMisses != 0 {
			t.Fatalf("approx queries touched the row cache: %+v", st)
		}
		return
	}
	if st.RowHits == 0 || st.RowMisses == 0 {
		t.Fatalf("stream did not exercise the cache: %+v", st)
	}
}
