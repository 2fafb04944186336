package montecarlo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// oracleMeetStep is the full-length meeting scan: it compares every step
// up to the cap, dead or alive.
func oracleMeetStep(ix *View, rowA, rowB []int32, off int) int {
	for t := 1; t <= ix.walkLen; t++ {
		x := rowA[off+t]
		if x >= 0 && x == rowB[off+t] {
			return t
		}
	}
	return -1
}

// oraclePair is Pair over oracleMeetStep.
func oraclePair(ix *View, a, b, walks int) float64 {
	walks = ix.clampWalks(walks)
	if a == b {
		return 1
	}
	rowA, rowB := ix.rows.Get(a), ix.rows.Get(b)
	var sum float64
	for w := 0; w < walks; w++ {
		if t := oracleMeetStep(ix, rowA, rowB, w*ix.stride()); t >= 0 {
			sum += ix.powc[t]
		}
	}
	return sum / float64(walks)
}

// oraclePairStderr is PairStderr over oracleMeetStep.
func oraclePairStderr(ix *View, a, b, walks int) (est, stderr float64) {
	walks = ix.clampWalks(walks)
	if a == b {
		return 1, 0
	}
	rowA, rowB := ix.rows.Get(a), ix.rows.Get(b)
	var sum, sumSq float64
	for w := 0; w < walks; w++ {
		var v float64
		if t := oracleMeetStep(ix, rowA, rowB, w*ix.stride()); t >= 0 {
			v = ix.powc[t]
		}
		sum += v
		sumSq += v * v
	}
	n := float64(walks)
	mean := sum / n
	varr := (sumSq - n*mean*mean) / math.Max(1, n-1)
	if varr < 0 {
		varr = 0
	}
	return mean, math.Sqrt(varr / n)
}

// oracleTopK is the full-scan top-k: the first pass runs oraclePair
// against every node and keeps those above 0, then the provisional top
// 2k are re-scored with refineFactor× the walks. k must be in [0, n].
func oracleTopK(ix *View, a, k, walks, refineFactor int) []Scored {
	if refineFactor < 1 {
		refineFactor = 1
	}
	cands := make([]Scored, 0, ix.n-1)
	for v := 0; v < ix.n; v++ {
		if v == a {
			continue
		}
		if s := oraclePair(ix, a, v, walks); s > 0 {
			cands = append(cands, Scored{Node: v, Score: s})
		}
	}
	byScoreSort := func(s []Scored) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].Score != s[j].Score {
				return s[i].Score > s[j].Score
			}
			return s[i].Node < s[j].Node
		})
	}
	byScoreSort(cands)
	short := min(2*k, len(cands))
	refined := cands[:short]
	for i := range refined {
		refined[i].Score = oraclePair(ix, a, refined[i].Node, walks*refineFactor)
	}
	byScoreSort(refined)
	return refined[:min(k, len(refined))]
}

// requireWalkInvariants asserts the two facts the live scan rests on,
// for every walk of every node: -1 propagates (a walk's live steps form
// a prefix), and walk 0 is dead at step 1 exactly when every walk of the
// node is.
func requireWalkInvariants(t *testing.T, ix *View, label string) {
	t.Helper()
	stride := ix.stride()
	for v := 0; v < ix.n; v++ {
		row := ix.rows.Get(v)
		dead0 := row[1] < 0
		for w := 0; w < ix.walks; w++ {
			off := w * stride
			if (row[off+1] < 0) != dead0 {
				t.Fatalf("%s: node %d walk %d step 1 = %d, walk 0 step 1 = %d", label, v, w, row[off+1], row[1])
			}
			for s := 2; s <= ix.walkLen; s++ {
				if row[off+s-1] < 0 && row[off+s] >= 0 {
					t.Fatalf("%s: node %d walk %d revives at step %d", label, v, w, s)
				}
			}
		}
	}
}

// toggleStream applies steps random updates through ix to g, the graph
// ix was built over: half delete a present edge, half insert an absent
// one, so nodes both gain their first in-link and lose their last. edges
// mirrors g's edge set.
func toggleStream(t *testing.T, ix *Index, g *graph.DiGraph, edges *[]graph.Edge, rng *rand.Rand, steps int) {
	t.Helper()
	for s := 0; s < steps; s++ {
		var up graph.Update
		if es := *edges; len(es) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(es))
			up = graph.Update{Edge: es[i]}
			es[i] = es[len(es)-1]
			*edges = es[:len(es)-1]
		} else {
			n := g.N()
			e := graph.Edge{From: rng.Intn(n), To: rng.Intn(n)}
			for g.HasEdge(e.From, e.To) {
				e = graph.Edge{From: rng.Intn(n), To: rng.Intn(n)}
			}
			up = graph.Update{Edge: e, Insert: true}
			*edges = append(*edges, e)
		}
		if _, changed := ix.Apply(up); !changed {
			t.Fatalf("step %d: update %+v reported no change", s, up)
		}
	}
}

// The live-step read path must answer exactly what the full scan it
// replaced answers: TopK, Pair and PairStderr equal the oracles bit for
// bit on the writer and on sealed views pinned along a long repair
// stream, at every walk budget and refinement factor, for query nodes
// with no in-links, hubs, random nodes and nodes grown by AddNodes.
func TestLiveScanMatchesFullScan(t *testing.T) {
	const (
		toggles   = 3000
		pinEvery  = 500
		growAfter = 2 // pinned views before AddNodes
		grown     = 4
		walkLen   = 10
		randQuery = 8
	)
	for _, n := range []int{300, 2000} {
		for _, W := range []int{1, 16} {
			t.Run(fmt.Sprintf("n=%d/W=%d", n, W), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n + W)))
				g := gen.PrefAttach(n, 4, int64(n))
				ix, err := NewIndex(g, 0.6, walkLen, W, 7)
				if err != nil {
					t.Fatal(err)
				}
				edges := g.Edges()
				var views []*View
				for len(views) < toggles/pinEvery {
					if len(views) == growAfter {
						// Two grown nodes get an in-link; the other two stay
						// isolated unless the stream reaches them.
						g.AddNodes(grown)
						ix.AddNodes(grown)
						for _, e := range []graph.Edge{{From: 0, To: n}, {From: n, To: n + 1}} {
							up := graph.Update{Edge: e, Insert: true}
							ix.Apply(up)
							edges = append(edges, e)
						}
					}
					toggleStream(t, ix, g, &edges, rng, pinEvery)
					views = append(views, ix.Seal())
				}

				compared := 0
				for i, view := range append(views, &ix.View) {
					label := fmt.Sprintf("view %d (n=%d)", i, view.n)
					if view == &ix.View {
						label = "writer"
					}
					requireWalkInvariants(t, view, label)
					compared += compareLiveScan(t, view, queryNodes(t, view, n, grown, randQuery, rng), label)
				}
				t.Logf("%d answers compared", compared)
			})
		}
	}
}

// queryNodes picks the query set of one index: a node with no in-links,
// the node whose walk 0 is alive and has the most live steps, randQuery
// random nodes, and the grown ids [base, base+grown) when present.
func queryNodes(t *testing.T, ix *View, base, grown, randQuery int, rng *rand.Rand) []int {
	t.Helper()
	dead, hub, hubLive := -1, -1, -1
	for v := 0; v < ix.n; v++ {
		row := ix.rows.Get(v)
		if row[1] < 0 {
			if dead < 0 {
				dead = v
			}
			continue
		}
		liveSteps := 0
		for s := 1; s <= ix.walkLen && row[s] >= 0; s++ {
			liveSteps++
		}
		if liveSteps > hubLive {
			hub, hubLive = v, liveSteps
		}
	}
	if dead < 0 || hub < 0 {
		t.Fatalf("query set needs a dead and a live node (dead %d, live %d)", dead, hub)
	}
	qs := []int{dead, hub}
	for i := 0; i < randQuery; i++ {
		qs = append(qs, rng.Intn(min(base, ix.n)))
	}
	for v := base; v < base+grown && v < ix.n; v++ {
		qs = append(qs, v)
	}
	return qs
}

// compareLiveScan checks TopK, Pair and PairStderr against the oracles
// for every query in qs and returns the number of answers compared.
func compareLiveScan(t *testing.T, ix *View, qs []int, label string) int {
	t.Helper()
	compared := 0
	for _, walks := range []int{1, max(1, ix.walks/4), ix.walks} {
		for _, a := range qs {
			for v := 0; v < ix.n; v++ {
				if got, want := ix.Pair(a, v, walks), oraclePair(ix, a, v, walks); got != want {
					t.Fatalf("%s: Pair(%d,%d,%d) = %v, full scan %v", label, a, v, walks, got, want)
				}
				ge, gs := ix.PairStderr(a, v, walks)
				we, ws := oraclePairStderr(ix, a, v, walks)
				if ge != we || gs != ws {
					t.Fatalf("%s: PairStderr(%d,%d,%d) = %v±%v, full scan %v±%v", label, a, v, walks, ge, gs, we, ws)
				}
				compared += 2
			}
			for _, rf := range []int{1, 4} {
				for _, k := range []int{1, 10, math.MaxInt} {
					got := ix.TopK(a, k, walks, rf)
					want := oracleTopK(ix, a, min(k, ix.n), walks, rf)
					if len(got) != len(want) {
						t.Fatalf("%s: TopK(%d,%d,%d,%d) has %d nodes, full scan %d", label, a, k, walks, rf, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: TopK(%d,%d,%d,%d)[%d] = %+v, full scan %+v", label, a, k, walks, rf, i, got[i], want[i])
						}
					}
					compared++
				}
			}
		}
	}
	return compared
}
