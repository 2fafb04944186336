package montecarlo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/batch"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestNewValidation(t *testing.T) {
	g := graph.New(3)
	if _, err := NewIndex(g, 0, 0, 8, 1); err == nil {
		t.Fatal("want error for C=0")
	}
	if _, err := NewIndex(g, 1, 0, 8, 1); err == nil {
		t.Fatal("want error for C=1")
	}
	if _, err := NewIndex(g, 0.6, 0, 0, 1); err == nil {
		t.Fatal("want error for zero walks")
	}
	if _, err := NewIndex(g, 0.6, 300, 8, 1); err == nil {
		t.Fatal("want error for a walk length past the posting limit")
	}
	e, err := NewIndex(g, 0.6, 0, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.WalkLen() <= 0 {
		t.Fatal("default walk length must be positive")
	}
}

func TestPairIdentity(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}})
	e, _ := NewIndex(g, 0.6, 0, 10, 1)
	if e.Pair(1, 1, 10) != 1 {
		t.Fatal("s(a,a) must be 1")
	}
}

func TestPairZeroWhenNoInLinks(t *testing.T) {
	// Node 0 has no in-neighbors → s(0, x) = 0 for x ≠ 0.
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}})
	e, _ := NewIndex(g, 0.8, 0, 200, 1)
	if got := e.Pair(0, 1, 200); got != 0 {
		t.Fatalf("s(0,1) = %v, want 0", got)
	}
}

func TestPairSingleCommonParent(t *testing.T) {
	// 0→1, 0→2: walks from 1 and 2 both step to 0 and meet at t=1
	// with probability 1, so ŝ(1,2) = C exactly.
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}})
	e, _ := NewIndex(g, 0.8, 0, 100, 7)
	if got := e.Pair(1, 2, 100); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("s(1,2) = %v, want 0.8", got)
	}
}

func TestPairMatchesDeterministicWithinCI(t *testing.T) {
	// On random graphs the MC estimate must agree with the Jeh–Widom
	// fixed point within a 5-sigma confidence interval.
	rng := rand.New(rand.NewSource(61))
	g := graph.New(12)
	for g.M() < 30 {
		g.AddEdge(rng.Intn(12), rng.Intn(12))
	}
	c := 0.6
	exact := batch.JehWidom(g, c, 40)
	e, _ := NewIndex(g, c, 40, 4000, 99)
	const walks = 4000
	checked := 0
	for a := 0; a < 12 && checked < 8; a++ {
		for b := a + 1; b < 12 && checked < 8; b++ {
			if exact.At(a, b) < 0.02 {
				continue
			}
			est, stderr := e.PairStderr(a, b, walks)
			slack := 5*stderr + 0.01 // CI plus truncation slack
			if math.Abs(est-exact.At(a, b)) > slack {
				t.Fatalf("pair (%d,%d): MC %v vs exact %v (slack %v)", a, b, est, exact.At(a, b), slack)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no sufficiently similar pairs in this random graph")
	}
}

func TestPairStderrShrinksWithWalks(t *testing.T) {
	g := gen.PrefAttach(60, 4, 5)
	e, _ := NewIndex(g, 0.6, 0, 5000, 11)
	_, se1 := e.PairStderr(10, 11, 200)
	_, se2 := e.PairStderr(10, 11, 5000)
	if se2 > se1 && se1 > 0 {
		t.Fatalf("stderr should shrink with walks: %v → %v", se1, se2)
	}
}

func TestSingleSource(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}})
	e, _ := NewIndex(g, 0.8, 0, 200, 3)
	scores := e.SingleSource(1, 200)
	if len(scores) != 4 {
		t.Fatalf("len = %d", len(scores))
	}
	if scores[1] != 1 {
		t.Fatal("self-similarity must be 1")
	}
	if scores[2] <= 0 {
		t.Fatal("s(1,2) should be positive (co-cited by 0)")
	}
}

func TestTopK(t *testing.T) {
	// 0→{1,2,3}: nodes 1, 2, 3 are mutually similar with the same score;
	// TopK(1) must rank them above unrelated node 4.
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3}, {From: 4, To: 0},
	})
	e, _ := NewIndex(g, 0.8, 0, 800, 9)
	top := e.TopK(1, 2, 200, 4)
	if len(top) != 2 {
		t.Fatalf("TopK len = %d", len(top))
	}
	for _, s := range top {
		if s.Node != 2 && s.Node != 3 {
			t.Fatalf("unexpected top node %d", s.Node)
		}
		if math.Abs(s.Score-0.8) > 1e-12 {
			t.Fatalf("score %v, want 0.8", s.Score)
		}
	}
}

func TestTopKSmallGraph(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	e, _ := NewIndex(g, 0.6, 0, 50, 2)
	if top := e.TopK(0, 5, 50, 1); len(top) > 1 {
		t.Fatalf("TopK on 2-node graph returned %d results", len(top))
	}
}

func TestPairPanicsOnBadWalks(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	e, _ := NewIndex(g, 0.6, 0, 10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e.Pair(0, 1, 0)
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := gen.PrefAttach(40, 3, 8)
	e1, _ := NewIndex(g, 0.6, 0, 500, 42)
	e2, _ := NewIndex(g, 0.6, 0, 500, 42)
	if e1.Pair(5, 7, 500) != e2.Pair(5, 7, 500) {
		t.Fatal("same seed must reproduce the estimate")
	}
}

// One Index queried from many goroutines must be race-free: queries are
// pure reads of the stored walks — no RNG, no lock, nothing shared but
// immutable data. Run under -race (CI does); before the stored-walk
// design this was a reliable data-race report on a shared rand source.
func TestIndexConcurrentQueries(t *testing.T) {
	g := lineGraphForRace()
	est, err := NewIndex(g, 0.6, 0, 20, 99)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a, b := (w+i)%g.N(), (w+2*i+1)%g.N()
				if s := est.Pair(a, b, 20); s < 0 || s > 1 {
					t.Errorf("Pair(%d,%d) = %v outside [0,1]", a, b, s)
				}
				if e, se := est.PairStderr(a, b, 20); math.IsNaN(e) || math.IsNaN(se) {
					t.Errorf("PairStderr(%d,%d) = %v ± %v", a, b, e, se)
				}
			}
		}(w)
	}
	wg.Wait()
}

// lineGraphForRace builds a small graph where walks actually move (every
// node except 0 has an in-neighbor).
func lineGraphForRace() *graph.DiGraph {
	g := graph.New(10)
	for v := 1; v < 10; v++ {
		g.AddEdge(v-1, v)
		g.AddEdge((v+4)%10, v)
	}
	return g
}

// Pure-read queries must stay deterministic across repeated sequential
// runs: same seed, same stored walks, same estimates.
func TestSequentialDeterminism(t *testing.T) {
	g := lineGraphForRace()
	run := func() []float64 {
		est, err := NewIndex(g, 0.6, 0, 50, 7)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, 20)
		for i := 0; i < 20; i++ {
			out = append(out, est.Pair(i%10, (i+3)%10, 50))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed sequential runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Zero or negative walk counts must fail loudly instead of dividing by
// zero into a silent NaN.
func TestNonPositiveWalksPanic(t *testing.T) {
	g := lineGraphForRace()
	est, err := NewIndex(g, 0.6, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Pair":           func() { est.Pair(1, 2, 0) },
		"PairStderr":     func() { est.PairStderr(1, 2, 0) },
		"PairNeg":        func() { est.Pair(1, 2, -5) },
		"PairStderrDiag": func() { est.PairStderr(3, 3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with non-positive walks did not panic", name)
				}
			}()
			f()
		}()
	}
}

// --- incremental repair ---

// requireRowsEqual asserts two same-shape indexes store bit-identical
// walk positions — the repair ≡ rebuild invariant at its rawest.
func requireRowsEqual(t *testing.T, got, want *View, label string) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: n = %d vs %d", label, got.n, want.n)
	}
	for u := 0; u < want.n; u++ {
		gr, wr := got.rows.Get(u), want.rows.Get(u)
		if len(gr) != len(wr) {
			t.Fatalf("%s: node %d row length %d vs %d", label, u, len(gr), len(wr))
		}
		for i := range wr {
			if gr[i] != wr[i] {
				t.Fatalf("%s: node %d position %d: %d vs %d", label, u, i, gr[i], wr[i])
			}
		}
	}
}

// randomStream drives a mixed insert/delete stream through ix.Apply,
// drawn against g, the graph ix was built over, and returns the number
// of effective updates.
func randomStream(t *testing.T, ix *Index, g *graph.DiGraph, rng *rand.Rand, steps int) int {
	t.Helper()
	applied := 0
	for s := 0; s < steps; s++ {
		n := g.N()
		from, to := rng.Intn(n), rng.Intn(n)
		up := graph.Update{Edge: graph.Edge{From: from, To: to}, Insert: !g.HasEdge(from, to)}
		if _, changed := ix.Apply(up); !changed {
			t.Fatalf("step %d: update %+v reported no change", s, up)
		}
		applied++
	}
	return applied
}

// The tentpole invariant: a stream of incremental repairs lands on the
// exact walk set a fresh rebuild at the same seed produces on the final
// graph — bit-identical positions, not just close estimates.
func TestRepairMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.PrefAttach(30, 3, 5)
	ix, err := NewIndex(g, 0.6, 8, 16, 77)
	if err != nil {
		t.Fatal(err)
	}
	randomStream(t, ix, g, rng, 120)
	fresh, err := NewIndex(g, 0.6, 8, 16, 77)
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, &ix.View, &fresh.View, "after 120 mixed updates")
	if repaired, steps := ix.RepairStats(); repaired == 0 || steps == 0 {
		t.Fatal("repairs ran but counters stayed zero")
	}
	if ix.Gen() != 120 {
		t.Fatalf("repair generation = %d, want 120", ix.Gen())
	}
}

// Inserting a present edge / deleting an absent one must be a no-op
// that reports changed=false and touches nothing.
func TestApplyNoopUpdates(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}})
	ix, _ := NewIndex(g, 0.6, 5, 8, 3)
	before := ix.Gen()
	if dirty, changed := ix.Apply(graph.Update{Edge: graph.Edge{From: 0, To: 1}, Insert: true}); changed || dirty != nil {
		t.Fatalf("duplicate insert: dirty=%v changed=%v", dirty, changed)
	}
	if dirty, changed := ix.Apply(graph.Update{Edge: graph.Edge{From: 2, To: 3}, Insert: false}); changed || dirty != nil {
		t.Fatalf("absent delete: dirty=%v changed=%v", dirty, changed)
	}
	if ix.Gen() != before {
		t.Fatal("no-op updates must not advance the repair generation")
	}
}

// Dirty rows must name exactly the owners of changed walks: sorted,
// unique, and consistent with a before/after row diff.
func TestApplyDirtyRowsMatchChangedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.PrefAttach(25, 3, 9)
	ix, _ := NewIndex(g, 0.6, 7, 12, 13)
	for s := 0; s < 40; s++ {
		n := g.N()
		from, to := rng.Intn(n), rng.Intn(n)
		up := graph.Update{Edge: graph.Edge{From: from, To: to}, Insert: !g.HasEdge(from, to)}
		before := ix.Clone()
		dirty, _ := ix.Apply(up)
		for i := 1; i < len(dirty); i++ {
			if dirty[i-1] >= dirty[i] {
				t.Fatalf("dirty rows not sorted/unique: %v", dirty)
			}
		}
		isDirty := make(map[int]bool, len(dirty))
		for _, u := range dirty {
			isDirty[u] = true
		}
		for u := 0; u < ix.n; u++ {
			changed := false
			for i, v := range ix.rows.Get(u) {
				if before.rows.Get(u)[i] != v {
					changed = true
					break
				}
			}
			if changed != isDirty[u] {
				t.Fatalf("step %d node %d: row changed=%v but dirty=%v (dirty set %v)", s, u, changed, isDirty[u], dirty)
			}
		}
	}
}

// Hammering one high-traffic node must trigger postings compaction and
// keep the live/total accounting consistent with a from-scratch recount.
func TestPostingsCompaction(t *testing.T) {
	g := gen.PrefAttach(20, 4, 2)
	ix, _ := NewIndex(g, 0.6, 6, 10, 5)
	rng := rand.New(rand.NewSource(31))
	for s := 0; s < 400; s++ {
		from, to := rng.Intn(20), rng.Intn(20)
		up := graph.Update{Edge: graph.Edge{From: from, To: to}, Insert: !g.HasEdge(from, to)}
		ix.Apply(up)
		if ix.total > 2*ix.live+ix.n {
			t.Fatalf("step %d: compaction threshold violated (total=%d live=%d)", s, ix.total, ix.live)
		}
	}
	// live must equal the number of alive positions at steps 1..L-1.
	want := 0
	stride := ix.stride()
	for u := 0; u < ix.n; u++ {
		for w := 0; w < ix.walks; w++ {
			for st := 1; st < ix.walkLen; st++ {
				if ix.rows.Get(u)[w*stride+st] >= 0 {
					want++
				}
			}
		}
	}
	if ix.live != want {
		t.Fatalf("live = %d, recount = %d", ix.live, want)
	}
	fresh, _ := NewIndex(g, 0.6, 6, 10, 5)
	requireRowsEqual(t, &ix.View, &fresh.View, "after compaction-heavy stream")
}

// AddNodes must grow the index exactly as a fresh rebuild over the
// grown graph would, including when edges then arrive at the new ids.
func TestAddNodesMatchesRebuild(t *testing.T) {
	g := gen.PrefAttach(15, 3, 4)
	ix, _ := NewIndex(g, 0.6, 6, 8, 21)
	g.AddNodes(5)
	ix.AddNodes(5)
	for i := 0; i < 5; i++ {
		up := graph.Update{Edge: graph.Edge{From: i, To: 15 + i}, Insert: true}
		ix.Apply(up)
	}
	fresh, _ := NewIndex(g, 0.6, 6, 8, 21)
	requireRowsEqual(t, &ix.View, &fresh.View, "after AddNodes + edges to new ids")
}

// A sealed view must keep serving its frozen walk set while the writer
// repairs — per-node copy-on-write, verified by value.
func TestSealIsolatesRepairs(t *testing.T) {
	g := gen.PrefAttach(20, 3, 6)
	ix, _ := NewIndex(g, 0.6, 6, 16, 9)
	view := ix.Seal()
	frozen := make(map[int]float64)
	for a := 0; a < 20; a++ {
		frozen[a] = view.Pair(a, (a+7)%20, 16)
	}
	rng := rand.New(rand.NewSource(41))
	randomStream(t, ix, g, rng, 60)
	for a := 0; a < 20; a++ {
		if got := view.Pair(a, (a+7)%20, 16); got != frozen[a] {
			t.Fatalf("sealed view drifted at pair (%d,%d): %v vs %v", a, (a+7)%20, got, frozen[a])
		}
	}
	// And the writer still agrees with a fresh rebuild.
	fresh, _ := NewIndex(g, 0.6, 6, 16, 9)
	requireRowsEqual(t, &ix.View, &fresh.View, "writer after seal + stream")
}

// Reset (the Recompute path) must land on the same pure function of
// (graph, seed) that repairs reach.
func TestResetMatchesRepairs(t *testing.T) {
	g := gen.PrefAttach(18, 3, 3)
	ix, _ := NewIndex(g, 0.6, 6, 8, 33)
	other := ix.Clone()
	rng := rand.New(rand.NewSource(51))
	randomStream(t, ix, g, rng, 50)
	other.Reset(g.Clone())
	requireRowsEqual(t, &other.View, &ix.View, "Reset vs repair stream")
}

// rowBytes is View.MemBytes as an O(n) walk over the row lengths.
func rowBytes(v *View) int64 {
	b := int64(v.rows.Len()) * 24
	for u := range v.rows.Len() {
		b += int64(len(v.rows.Get(u))) * 4
	}
	return b
}

// lengthWalkBytes is Index.MemBytes as an O(n) walk over the slice
// lengths.
func lengthWalkBytes(ix *Index) int64 {
	b := rowBytes(&ix.View)
	for _, ps := range ix.postings {
		b += 24 + int64(len(ps))*8
	}
	return b
}

// MemBytes is kept in O(1) from running counts; it must equal the walk
// over the slice lengths on the writer, on a clone and on a sealed view
// through repairs, AddNodes, Reset and postings compaction.
func TestMemBytesMatchesLengthWalk(t *testing.T) {
	g := gen.PrefAttach(30, 4, 3)
	ix, _ := NewIndex(g, 0.6, 6, 8, 5)
	rng := rand.New(rand.NewSource(61))
	check := func(label string) {
		t.Helper()
		for name, x := range map[string]*Index{"writer": ix, "clone": ix.Clone()} {
			if got, want := x.MemBytes(), lengthWalkBytes(x); got != want {
				t.Fatalf("%s %s: MemBytes = %d, length walk %d", label, name, got, want)
			}
		}
		if v := ix.Seal(); v.MemBytes() != rowBytes(v) {
			t.Fatalf("%s view: MemBytes = %d, length walk %d", label, v.MemBytes(), rowBytes(v))
		}
	}
	check("fresh")
	compactions := 0
	for s := 0; s < 400; s++ {
		switch s {
		case 100:
			g.AddNodes(3)
			ix.AddNodes(3)
			check("after AddNodes")
		case 250:
			ix.Reset(g)
			check("after Reset")
		}
		before := ix.total
		randomStream(t, ix, g, rng, 1)
		if ix.total < before {
			compactions++
		}
		check(fmt.Sprintf("step %d", s))
	}
	if compactions == 0 {
		t.Fatal("the stream never compacted the postings")
	}
}

// Sealed views must keep their walk sets when the index spans several
// copy-on-write blocks: repairs, seals and AddNodes growth — including
// growth into a shared, partly filled last block and across a block
// boundary — checked row by row against a deep copy taken at each seal
// after every step.
func TestSealIsolatesRepairsAcrossBlocks(t *testing.T) {
	type frozen struct {
		view *View
		want *Index
	}
	for _, n := range []int{63, 64, 65, 130} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := gen.PrefAttach(n, 3, int64(n))
			ix, err := NewIndex(g, 0.6, 6, 8, 9)
			if err != nil {
				t.Fatal(err)
			}
			views := []frozen{{ix.Seal(), ix.Clone()}}
			for step := 0; step < 200; step++ {
				switch op := rng.Intn(20); {
				case op == 0:
					k := 1 + rng.Intn(3)
					g.AddNodes(k)
					ix.AddNodes(k)
				case op < 3:
					views = append(views, frozen{ix.Seal(), ix.Clone()})
				default:
					randomStream(t, ix, g, rng, 1)
				}
				for v, f := range views {
					requireRowsEqual(t, f.view, &f.want.View, fmt.Sprintf("step %d view %d", step, v))
				}
			}
			if ix.N() <= n {
				t.Fatal("the stream never grew the index")
			}
			fresh, _ := NewIndex(g, 0.6, 6, 8, 9)
			requireRowsEqual(t, &ix.View, &fresh.View, "writer after seals, growth and repairs")
		})
	}
}

// sealSink keeps sealed views on the heap, as a publish does.
var sealSink *View

// A seal copies one pointer per 64-row block, not one row header per
// node, and none of the writer's fields: at n = 5000 it allocates the
// 144 B View header and 79 block pointers (640 B in their size class),
// 784 B whatever the writer repaired since the last seal. The pin
// allows 32 B of slack, so a field added to View shows here.
func TestSealAllocatesPerBlock(t *testing.T) {
	const n, calls, maxPer = 5000, 200, 784 + 32
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	ix, err := NewIndex(g, 0.6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		sealSink = ix.Seal()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > maxPer {
		t.Fatalf("Seal at n = %d allocated %d B per call, want ≤ %d B", n, per, maxPer)
	} else {
		t.Logf("Seal at n = %d allocates %d B per call", n, per)
	}
}
