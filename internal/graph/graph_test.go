package graph

import (
	"math"
	"math/bits"
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
	if in := g.In(2); !slices.Equal(in, []int32{0, 1, 3}) {
		t.Fatalf("In = %v", in)
	}
	if out := g.Out(2); !slices.Equal(out, []int32{0}) {
		t.Fatalf("Out = %v", out)
	}
}

func TestEachNeighbor(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 2}, {1, 2}})
	seen := map[int]bool{}
	for _, u := range g.In(2) {
		seen[int(u)] = true
	}
	if !seen[0] || !seen[1] || len(seen) != 2 {
		t.Fatalf("In(2) saw %v", seen)
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

// FromEdges builds the same graph whatever order the edges come in:
// a shuffled list with duplicates, the sorted list, and inserting the
// shuffled list edge by edge all give the same Edges, In and Out.
func TestFromEdgesOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 150
	var shuffled []Edge
	for range 6 * n {
		shuffled = append(shuffled, Edge{rng.Intn(n), rng.Intn(n)})
	}
	shuffled = append(shuffled, shuffled[:n]...)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	byInsert := New(n)
	for _, e := range shuffled {
		byInsert.AddEdge(e.From, e.To)
	}
	sorted := FromEdges(n, shuffled).Edges()
	if !slices.IsSortedFunc(sorted, cmpEdges) {
		t.Fatal("Edges is not sorted by (From, To)")
	}
	for name, g := range map[string]*DiGraph{"shuffled": FromEdges(n, shuffled), "sorted": FromEdges(n, sorted), "AddEdge": byInsert} {
		if !slices.Equal(g.Edges(), sorted) {
			t.Fatalf("%s: Edges differ", name)
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(g.In(v), byInsert.In(v)) || !slices.Equal(g.Out(v), byInsert.Out(v)) {
				t.Fatalf("%s: node %d: In %v Out %v, want In %v Out %v", name, v, g.In(v), g.Out(v), byInsert.In(v), byInsert.Out(v))
			}
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
	if row := q.Row(2); !slices.Equal(row, []float64{1.0 / 3, 1.0 / 3, 0, 1.0 / 3}) {
		t.Fatalf("row 2 = %v", row)
	}
	var sum float64
	for _, v := range q.Row(2) {
		sum += v
	}
	if sum != 1 {
		t.Fatalf("row 2 sum %v", sum)
	}
	// Row 0 has no in-neighbors → all zero.
	if row := q.Row(0); !slices.Equal(row, make([]float64, 4)) {
		t.Fatalf("row 0 = %v, want zeros", row)
	}
	// [Q]_{j,i} nonzero iff (i,j) ∈ E.
	if q.At(3, 2) != 1 {
		t.Fatalf("Q[3][2] = %v, want 1", q.At(3, 2))
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
	in := g.In(FigJ)
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
			for _, u := range g.In(v) {
				if !g.HasEdge(int(u), v) {
					return false
				}
			}
			for _, u := range g.Out(v) {
				if !g.HasEdge(v, int(u)) {
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
			var sum float64
			for _, v := range q.Row(j) {
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

// mulQCase draws a graph with a self-loop at node 0 and no in-links at
// node n−1, and an x for it.
func mulQCase(rng *rand.Rand) (*DiGraph, []float64) {
	n := 2 + rng.Intn(12)
	g := New(n)
	g.AddEdge(0, 0)
	for k := 0; k < 3*n; k++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n-1))
	}
	return g, signedVec(rng, n)
}

// signedVec draws n entries among +0, −0, negative and positive values:
// Inc-uSR's ξ and η are signed.
func signedVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(4) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = math.Copysign(0, -1)
		case 2:
			x[i] = -rng.Float64()
		default:
			x[i] = rng.Float64()
		}
	}
	return x
}

// mulMatches runs mul into a dirty dst and reports whether it wrote want
// bit for bit.
func mulMatches(rng *rand.Rand, mul func(dst, x []float64), x, want []float64) bool {
	dst := make([]float64, len(want))
	for i := range dst {
		dst[i] = rng.Float64()
	}
	mul(dst, x)
	for i, v := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// MulQ equals Dense.MulVec of BackwardTransition bit for bit.
func TestMulQMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		g, x := mulQCase(rng)
		if !mulMatches(rng, g.MulQ, x, g.BackwardTransition().MulVec(x)) {
			t.Fatalf("trial %d: MulQ differs from Dense.MulVec", trial)
		}
	}
}

// MulQT equals Dense.MulVecT of BackwardTransition bit for bit.
func TestMulQTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g, x := mulQCase(rng)
		if !mulMatches(rng, g.MulQT, x, g.BackwardTransition().MulVecT(x)) {
			t.Fatalf("trial %d: MulQT differs from Dense.MulVecT", trial)
		}
	}
}

// Property: MulQ and MulQT follow the in-lists through a stream of
// insertions, deletions (which can empty an in-list) and node growth:
// after every update both equal the dense products of a freshly built
// BackwardTransition bit for bit.
func TestQuickMulQAgreesWithDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, _ := mulQCase(rng)
		for step := 0; step < 20; step++ {
			switch r := rng.Intn(10); {
			case r == 0:
				g.AddNodes(1)
			case r < 5:
				if es := g.Edges(); len(es) > 0 {
					e := es[rng.Intn(len(es))]
					g.RemoveEdge(e.From, e.To)
				}
			default:
				g.AddEdge(rng.Intn(g.N()), rng.Intn(g.N()))
			}
			q, x := g.BackwardTransition(), signedVec(rng, g.N())
			if !mulMatches(rng, g.MulQ, x, q.MulVec(x)) || !mulMatches(rng, g.MulQT, x, q.MulVecT(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
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

// sealIsolationSeed encodes FuzzSealIsolation's seed for a graph of n
// nodes: 48 edge toggles, then 80 random ops. Seeds stay short because
// the fuzzer minimizes every new input it finds, at one run per try.
func sealIsolationSeed(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	data := []byte{byte(n - 1)}
	for range 48 {
		data = append(data, 15, byte(rng.Intn(n)), byte(rng.Intn(n)))
	}
	for range 80 {
		data = append(data, byte(rng.Intn(16)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return data
}

// adjBits models one adjacency of a graph of up to 256 nodes: row v has
// bit u set when u is in v's list.
type adjBits [4 * 64][4]uint64

func (m *adjBits) flip(v, u int) { m[v][u>>6] ^= 1 << (u & 63) }

func (m *adjBits) has(v, u int) bool { return m[v][u>>6]>>(u&63)&1 != 0 }

// matches reports whether row lists exactly row v's set bits in
// ascending order, which makes it strictly ascending.
func (m *adjBits) matches(v int, row []int32) bool {
	k := 0
	for w, word := range m[v] {
		for ; word != 0; word &= word - 1 {
			if k == len(row) || int(row[k]) != w<<6+bits.TrailingZeros64(word) {
				return false
			}
			k++
		}
	}
	return k == len(row)
}

// edges lists the modelled out-adjacency of nodes 0..n-1 in (From, To)
// order.
func (m *adjBits) edges(n int) []Edge {
	var es []Edge
	for v := range n {
		for w, word := range m[v] {
			for ; word != 0; word &= word - 1 {
				es = append(es, Edge{v, w<<6 + bits.TrailingZeros64(word)})
			}
		}
	}
	return es
}

// Snapshots must stay frozen, and the live lists sorted and exact, when
// the graph spans several copy-on-write blocks. The first byte sets the
// node count (1–256, up to four 64-row blocks); then each 3-byte op
// [kind, a, b] is AddNodes (kind 0, capped at 256 nodes), Seal (kind 1
// or 2; up to four snapshots are retained, a fifth replacing snapshot
// a mod 4) or the toggle of edge (a mod N, b mod N). After every op each
// live Out(v) and In(v) lists exactly the model's set bits in ascending
// order, and each retained snapshot's N, M and Edges equal the model
// frozen at its seal, as does its HasEdge of the edge just toggled — an
// insert into a row a snapshot still shares would show here.
func FuzzSealIsolation(f *testing.F) {
	for _, n := range []int{63, 64, 65, 130} {
		f.Add(sealIsolationSeed(n))
	}
	type frozen struct {
		snap  *Snapshot
		n     int
		edges []Edge
	}
	const maxNodes, maxOps, maxViews = 4 * 64, 256, 4
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := New(1 + int(data[0]))
		var out, in adjBits
		var views []frozen
		for p, ops := 1, 0; p+3 <= len(data) && ops < maxOps; p, ops = p+3, ops+1 {
			kind, a, b := data[p]%16, int(data[p+1]), int(data[p+2])
			toggled := Edge{-1, -1}
			switch {
			case kind == 0:
				if k := 1 + a%3; g.N()+k <= maxNodes {
					g.AddNodes(k)
				}
			case kind <= 2:
				v := frozen{g.Seal(), g.N(), out.edges(g.N())}
				if len(views) < maxViews {
					views = append(views, v)
				} else {
					views[a%maxViews] = v
				}
			default:
				toggled = Edge{a % g.N(), b % g.N()}
				if out.has(toggled.From, toggled.To) {
					g.RemoveEdge(toggled.From, toggled.To)
				} else {
					g.AddEdge(toggled.From, toggled.To)
				}
				out.flip(toggled.From, toggled.To)
				in.flip(toggled.To, toggled.From)
			}
			for v := 0; v < g.N(); v++ {
				if !out.matches(v, g.Out(v)) || !in.matches(v, g.In(v)) {
					t.Fatalf("op %d node %d: Out %v In %v differ from the model", ops, v, g.Out(v), g.In(v))
				}
			}
			for vi, fr := range views {
				if fr.snap.N() != fr.n || fr.snap.M() != len(fr.edges) {
					t.Fatalf("op %d view %d: N=%d M=%d, sealed with N=%d M=%d", ops, vi, fr.snap.N(), fr.snap.M(), fr.n, len(fr.edges))
				}
				if !slices.Equal(fr.snap.Edges(), fr.edges) {
					t.Fatalf("op %d view %d: edges drifted from the sealed state", ops, vi)
				}
				if toggled.From >= 0 && fr.snap.HasEdge(toggled.From, toggled.To) != slices.Contains(fr.edges, toggled) {
					t.Fatalf("op %d view %d: HasEdge%v follows the writer", ops, vi, toggled)
				}
			}
		}
		if g.M() != len(out.edges(g.N())) {
			t.Fatalf("M = %d, model has %d edges", g.M(), len(out.edges(g.N())))
		}
	})
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
