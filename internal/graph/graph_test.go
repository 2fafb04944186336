package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(3)
	if !g.AddEdge(0, 1) {
		t.Fatal("first add should succeed")
	}
	if g.AddEdge(0, 1) {
		t.Fatal("duplicate add should report false")
	}
	if g.M() != 1 || !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge state wrong after add")
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("remove should succeed")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("double remove should report false")
	}
	if g.M() != 0 {
		t.Fatalf("M=%d after remove", g.M())
	}
}

func TestSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(1, 1)
	if !g.HasEdge(1, 1) || g.InDegree(1) != 1 || g.OutDegree(1) != 1 {
		t.Fatal("self loop mishandled")
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 2}, {1, 2}, {3, 2}, {2, 0}})
	if g.InDegree(2) != 3 || g.OutDegree(2) != 1 {
		t.Fatalf("deg in=%d out=%d", g.InDegree(2), g.OutDegree(2))
	}
	in := g.InNeighbors(2)
	if len(in) != 3 || in[0] != 0 || in[1] != 1 || in[2] != 3 {
		t.Fatalf("InNeighbors = %v", in)
	}
	out := g.OutNeighbors(2)
	if len(out) != 1 || out[0] != 0 {
		t.Fatalf("OutNeighbors = %v", out)
	}
}

func TestEachNeighbor(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 2}, {1, 2}})
	seen := map[int]bool{}
	g.EachInNeighbor(2, func(u int) { seen[u] = true })
	if !seen[0] || !seen[1] || len(seen) != 2 {
		t.Fatalf("EachInNeighbor saw %v", seen)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(2).AddEdge(0, 5)
}

// TestNodeCountBeyondInt32Panics: in-lists store ids as int32, so a node
// count past math.MaxInt32 is refused before anything is allocated.
func TestNodeCountBeyondInt32Panics(t *testing.T) {
	wantPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		f()
	}
	wantPanic("New", func() { New(math.MaxInt32 + 1) })
	g := New(2)
	wantPanic("AddNodes", func() { g.AddNodes(math.MaxInt32 - 1) })
	if g.N() != 2 {
		t.Fatalf("refused AddNodes changed N to %d", g.N())
	}
}

func TestEdgesSorted(t *testing.T) {
	g := FromEdges(3, []Edge{{2, 0}, {0, 1}, {0, 2}})
	es := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {2, 0}}
	if len(es) != 3 {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges = %v", es)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}})
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) || g.M() != 1 {
		t.Fatal("Clone not independent")
	}
	if !c.HasEdge(0, 1) {
		t.Fatal("Clone lost edge")
	}
}

func TestBackwardTransitionRowStochastic(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 2}, {1, 2}, {3, 2}, {2, 3}})
	q := g.BackwardTransition()
	// Row 2 has I(2)={0,1,3}: three entries of 1/3.
	cols, vals := q.Row(2)
	if len(cols) != 3 {
		t.Fatalf("row 2 nnz = %d", len(cols))
	}
	var sum float64
	for _, v := range vals {
		if v != 1.0/3 {
			t.Fatalf("row 2 value %v", v)
		}
		sum += v
	}
	if sum != 1 {
		t.Fatalf("row 2 sum %v", sum)
	}
	// Row 0 has no in-neighbors → empty.
	cols, _ = q.Row(0)
	if len(cols) != 0 {
		t.Fatal("row 0 should be empty")
	}
	// [Q]_{j,i} nonzero iff (i,j) ∈ E.
	if q.At(3, 2) != 1 {
		t.Fatalf("Q[3][2] = %v, want 1", q.At(3, 2))
	}
}

func TestAdjacency(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	a := g.Adjacency()
	if a.At(0, 1) != 1 || a.At(1, 2) != 1 || a.At(1, 0) != 0 {
		t.Fatal("adjacency mismatch")
	}
}

func TestApplyUpdate(t *testing.T) {
	g := New(3)
	if !g.Apply(Update{Edge: Edge{0, 1}, Insert: true}) {
		t.Fatal("insert apply failed")
	}
	if !g.Apply(Update{Edge: Edge{0, 1}, Insert: false}) {
		t.Fatal("delete apply failed")
	}
	if g.M() != 0 {
		t.Fatal("graph should be empty")
	}
}

func TestUpdateString(t *testing.T) {
	if (Update{Edge{1, 2}, true}).String() != "+(1,2)" {
		t.Fatal("insert String")
	}
	if (Update{Edge{1, 2}, false}).String() != "-(1,2)" {
		t.Fatal("delete String")
	}
}

func TestSummarize(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 2}, {1, 2}, {3, 2}})
	st := Summarize(g)
	if st.Nodes != 4 || st.Edges != 3 || st.MaxInDeg != 3 || st.ZeroInDeg != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.AvgInDeg != 0.75 {
		t.Fatalf("AvgInDeg = %v", st.AvgInDeg)
	}
}

func TestInDegreeHistogram(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 2}, {1, 2}, {3, 2}})
	h := InDegreeHistogram(g)
	if h[0] != 3 || h[3] != 1 {
		t.Fatalf("histogram %v", h)
	}
}

func TestDiameter(t *testing.T) {
	// 0→1→2→3 chain: diameter 3.
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if d := Diameter(g); d != 3 {
		t.Fatalf("Diameter = %d, want 3", d)
	}
	if d := Diameter(New(3)); d != 0 {
		t.Fatalf("empty diameter = %d", d)
	}
}

func TestFig1Graph(t *testing.T) {
	g, ins := Fig1Graph()
	if g.N() != 15 {
		t.Fatalf("Fig1 n = %d", g.N())
	}
	if ins != (Edge{FigI, FigJ}) {
		t.Fatalf("inserted edge = %v", ins)
	}
	if g.HasEdge(FigI, FigJ) {
		t.Fatal("old G must not contain the dashed edge (i,j)")
	}
	// Example 4 requires I(j) = {h, k} in the old G.
	in := g.InNeighbors(FigJ)
	if len(in) != 2 || in[0] != FigH || in[1] != FigK {
		t.Fatalf("I(j) = %v, want [h k]", in)
	}
	if Fig1NodeName(FigA) != "a" || Fig1NodeName(FigO) != "o" {
		t.Fatal("node names wrong")
	}
}

// Property: after any random sequence of inserts/deletes, M() equals the
// size of the edge set, and in/out adjacency stay mirror images.
func TestQuickDynamicConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := New(n)
		ref := map[Edge]bool{}
		for step := 0; step < 60; step++ {
			e := Edge{rng.Intn(n), rng.Intn(n)}
			if rng.Intn(2) == 0 {
				g.AddEdge(e.From, e.To)
				ref[e] = true
			} else {
				g.RemoveEdge(e.From, e.To)
				delete(ref, e)
			}
		}
		if g.M() != len(ref) {
			return false
		}
		for e := range ref {
			if !g.HasEdge(e.From, e.To) {
				return false
			}
		}
		// In-adjacency must mirror out-adjacency.
		for v := 0; v < n; v++ {
			for _, u := range g.InNeighbors(v) {
				if !g.HasEdge(u, v) {
					return false
				}
			}
			for _, u := range g.OutNeighbors(v) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every row of Q sums to 1 for nodes with in-neighbors, 0 otherwise.
func TestQuickBackwardTransitionStochastic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := New(n)
		for k := 0; k < 3*n; k++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		q := g.BackwardTransition()
		for j := 0; j < n; j++ {
			_, vals := q.Row(j)
			var sum float64
			for _, v := range vals {
				sum += v
			}
			if g.InDegree(j) == 0 {
				if sum != 0 {
					return false
				}
			} else if sum < 1-1e-12 || sum > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Sealed snapshots must be frozen at seal time while the writer keeps
// mutating — including across AddNodes growth and repeated seals.
func TestSealSnapshotIsolation(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)

	s1 := g.Seal()
	if s1.N() != 5 || s1.M() != 3 || !s1.HasEdge(0, 1) || s1.HasEdge(1, 0) {
		t.Fatal("snapshot does not reflect seal-time state")
	}

	g.AddEdge(0, 2)
	g.RemoveEdge(0, 1)
	first := g.AddNodes(2)
	g.AddEdge(first, 0)

	if !s1.HasEdge(0, 1) || s1.HasEdge(0, 2) || s1.HasEdge(first, 0) || s1.N() != 5 || s1.M() != 3 {
		t.Fatal("snapshot observed post-seal mutations")
	}
	// Out-of-range queries on a snapshot answer false, never panic.
	if s1.HasEdge(-1, 0) || s1.HasEdge(0, 99) || s1.HasEdge(first, first) {
		t.Fatal("out-of-range snapshot HasEdge not false")
	}

	s2 := g.Seal()
	if s2.N() != 7 || s2.M() != 4 || !s2.HasEdge(first, 0) || s2.HasEdge(0, 1) {
		t.Fatal("second snapshot wrong")
	}
	// Edge enumeration matches the live graph's, sorted identically.
	want := g.Edges()
	got := s2.Edges()
	if len(got) != len(want) {
		t.Fatalf("snapshot Edges len %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("snapshot Edges[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// s1 still frozen after the second seal round.
	if !s1.HasEdge(0, 1) || s1.M() != 3 {
		t.Fatal("first snapshot corrupted by second seal cycle")
	}
}

// Concurrent snapshot readers against a live writer must be race-free
// (run under -race) and always see their sealed state.
func TestSealConcurrentReaders(t *testing.T) {
	g := New(32)
	for i := 0; i < 31; i++ {
		g.AddEdge(i, i+1)
	}
	snap := g.Seal()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !snap.HasEdge(3, 4) || snap.HasEdge(4, 3) || snap.M() != 31 {
					t.Error("snapshot drifted under concurrent writes")
					return
				}
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		g.RemoveEdge(i%31, i%31+1)
		g.AddEdge(i%31, i%31+1)
		if i%100 == 0 {
			g.Seal() // fresh seals must not disturb older snapshots either
		}
	}
	close(done)
	wg.Wait()
}

// Snapshots must stay frozen when the graph spans several copy-on-write
// blocks: random edge toggles, seals and AddNodes growth — including
// growth into a shared, partly filled last block and across a block
// boundary — checked against each snapshot's edge list at seal time
// after every step.
func TestSealIsolationAcrossBlocks(t *testing.T) {
	type frozen struct {
		snap  *Snapshot
		n     int
		edges []Edge
	}
	for _, n := range []int{63, 64, 65, 130} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := New(n)
			for g.M() < 3*n {
				g.AddEdge(rng.Intn(n), rng.Intn(n))
			}
			views := []frozen{{g.Seal(), g.N(), g.Edges()}}
			for step := 0; step < 200; step++ {
				switch op := rng.Intn(20); {
				case op == 0:
					g.AddNodes(1 + rng.Intn(3))
				case op < 3:
					views = append(views, frozen{g.Seal(), g.N(), g.Edges()})
				default:
					i, j := rng.Intn(g.N()), rng.Intn(g.N())
					if !g.RemoveEdge(i, j) {
						g.AddEdge(i, j)
					}
				}
				for v, f := range views {
					if f.snap.N() != f.n || f.snap.M() != len(f.edges) {
						t.Fatalf("step %d view %d: N=%d M=%d, sealed with N=%d M=%d", step, v, f.snap.N(), f.snap.M(), f.n, len(f.edges))
					}
					if got := f.snap.Edges(); !slices.Equal(got, f.edges) {
						t.Fatalf("step %d view %d: edges drifted from the sealed state", step, v)
					}
					for _, e := range f.edges[:min(8, len(f.edges))] {
						if !f.snap.HasEdge(e.From, e.To) {
							t.Fatalf("step %d view %d: sealed edge %v missing", step, v, e)
						}
					}
				}
			}
			if g.N() <= n {
				t.Fatal("the stream never grew the graph")
			}
		})
	}
}

// sealSink keeps sealed views on the heap, as a publish does.
var sealSink *Snapshot

// A seal copies one pointer per 64-row block, not one per node: at
// n = 5000 it allocates the snapshot header and 79 block pointers,
// well under 1 KB, whatever the writer did since the last seal.
func TestSealAllocatesPerBlock(t *testing.T) {
	const n, calls = 5000, 200
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		sealSink = g.Seal()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1024 {
		t.Fatalf("Seal at n = %d allocated %d B per call, want < 1 KB", n, per)
	} else {
		t.Logf("Seal at n = %d allocates %d B per call", n, per)
	}
}
