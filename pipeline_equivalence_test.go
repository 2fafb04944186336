package simrank

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// streamModel tracks the edge set an update stream should produce, so a
// fresh engine over the final graph can arbitrate the incremental one.
type streamModel struct {
	n     int
	edges map[Edge]bool
}

func (m *streamModel) edgeList() []Edge {
	out := make([]Edge, 0, len(m.edges))
	for e, ok := range m.edges {
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// randomUpdate returns a valid-in-sequence update against the model
// state (insert if the random pair is absent, delete if present) and
// folds it into the model.
func (m *streamModel) randomUpdate(rng *rand.Rand) Update {
	e := Edge{From: rng.Intn(m.n), To: rng.Intn(m.n)}
	up := Update{Edge: e, Insert: !m.edges[e]}
	m.edges[e] = up.Insert
	return up
}

// TestPipelineEquivalenceRandomStreams is the property test for the
// whole mutation surface: random insert/delete streams on random graphs,
// folded through arbitrary interleavings of Apply, ApplyBatch (whose
// batch sizes straddle the recompute crossover) and AddNodes, must land
// on the same similarities as a fresh engine built over the final edge
// set — within 1e-12, with pruning on and off, at Workers ∈ {1, 2, 4,
// 8}. Unit updates are serial at every count; the batch kernel behind
// the construction and the recompute crossover partitions by row, and 8
// oversubscribes the tiny graphs, which exercises the empty-range edges
// of that partition.
func TestPipelineEquivalenceRandomStreams(t *testing.T) {
	for _, disablePruning := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			// K = 60 pushes the iterative truncation error C^{K+1} ≈ 3e-14
			// below the 1e-12 gate, so any residual difference is a real
			// divergence between the incremental and batch paths, not
			// truncation noise. The backend comes from the suite's
			// SIMRANK_BACKEND hook (dense by default), so CI's matrix entry
			// replays the whole property against the packed store.
			opts := withTestBackend(t, Options{K: 60, DisablePruning: disablePruning, Workers: workers})
			name := fmt.Sprintf("pruning=%v/workers=%d", !disablePruning, workers)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(workers)*100 + int64(len(name))))
				for trial := 0; trial < 3; trial++ {
					runRandomStream(t, rng, opts)
				}
			})
		}
	}
}

func runRandomStream(t *testing.T, rng *rand.Rand, opts Options) {
	t.Helper()
	model := &streamModel{n: 5 + rng.Intn(5), edges: make(map[Edge]bool)}
	for i := 0; i < model.n; i++ {
		for j := 0; j < model.n; j++ {
			if i != j && rng.Float64() < 0.2 {
				model.edges[Edge{From: i, To: j}] = true
			}
		}
	}
	eng, err := NewEngine(model.n, model.edgeList(), opts)
	if err != nil {
		t.Fatal(err)
	}

	var trace []string
	for step := 0; step < 14; step++ {
		switch op := rng.Intn(4); op {
		case 0, 1: // single incremental update
			up := model.randomUpdate(rng)
			trace = append(trace, up.String())
			if _, err := eng.Apply(up); err != nil {
				t.Fatalf("step %d %v (trace %v): %v", step, up, trace, err)
			}
		case 2: // batch: size 1..6 straddles the recompute threshold
			k := 1 + rng.Intn(6)
			ups := make([]Update, k)
			for i := range ups {
				ups[i] = model.randomUpdate(rng)
				trace = append(trace, ups[i].String())
			}
			if err := eng.ApplyBatch(ups); err != nil {
				t.Fatalf("step %d batch %v (trace %v): %v", step, ups, trace, err)
			}
		case 3: // grow the graph, then keep updating across the boundary
			count := 1 + rng.Intn(2)
			trace = append(trace, fmt.Sprintf("addnodes(%d)", count))
			if _, err := eng.AddNodes(count); err != nil {
				t.Fatal(err)
			}
			model.n += count
		}
	}

	fresh, err := NewEngine(model.n, model.edgeList(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if eng.N() != model.n || eng.M() != len(model.edgeList()) {
		t.Fatalf("graph diverged from model: engine %d/%d, model %d/%d (trace %v)",
			eng.N(), eng.M(), model.n, len(model.edgeList()), trace)
	}
	if opts.Backend == BackendApprox {
		// No materialized matrix on the sampling tier — and no tolerance
		// either: walk repair must land on the exact index a fresh build
		// at the same seed produces, so every pair compares bit-equal.
		for a := 0; a < model.n; a++ {
			for b := 0; b < model.n; b++ {
				if got, want := eng.Similarity(a, b), fresh.Similarity(a, b); got != want {
					t.Fatalf("repaired s(%d,%d) = %v, fresh %v (trace %v)", a, b, got, want, trace)
				}
			}
		}
		return
	}
	if d := matrix.MaxAbsDiff(eng.Similarities(), fresh.Similarities()); d > 1e-12 {
		t.Fatalf("incremental stream drifted %g from fresh engine (n=%d, trace %v)", d, model.n, trace)
	}
}
