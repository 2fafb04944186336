// Package graph implements the dynamic directed graph substrate: out
// adjacency sets, sorted in-neighbour lists I(v) that Inc-SR's Q and the
// approx walk index read in place, snapshots,
// edge-list I/O, and the degree statistics that the paper's complexity
// analysis (average in-degree d) is stated in terms of.
//
// Nodes are dense integers 0..n-1. An edge (i, j) is directed from i to j,
// matching the paper: "each edge depicts a reference from one paper to
// another", and the backward transition matrix Q has
// [Q]_{j,i} = 1/|I(j)| iff (i, j) ∈ E.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cow"
	"repro/internal/matrix"
)

// Edge is a directed edge from From to To.
type Edge struct {
	From, To int
}

// DiGraph is a mutable directed graph over nodes 0..N-1. Both out- and
// in-adjacency are maintained: O(a) is a set, so edge membership is
// O(1), and I(a) an ascending list, the one copy of the in-neighbours
// the update algorithms and the walk index read.
type DiGraph struct {
	n int
	// out is the out-adjacency, one set per node in a copy-on-write
	// table that Seal shares with snapshots. Only the out-adjacency is
	// sealed: snapshots serve HasEdge and Edges, both out-side; the
	// in-adjacency stays writer-private.
	out cow.Table[map[int]struct{}]
	// in[v] is I(v) in ascending order, kept sorted by binary-search
	// insert and delete in place.
	in [][]int32
	m  int // number of edges
}

// Snapshot is an immutable point-in-time view of a graph's topology,
// produced by Seal: any number of goroutines may query it while the
// writer keeps mutating the original. It carries exactly the read
// surface the MVCC view needs — size, edge membership and edge
// enumeration (for snapshot serialization).
type Snapshot struct {
	n, m int
	out  cow.Table[map[int]struct{}]
}

// Seal returns an immutable snapshot sharing the current out-adjacency:
// ⌈n/64⌉ block pointer copies (cow.Table.Seal), no per-edge work. The
// writer's next mutation of a row clones the row's block header and
// then its out-set, so the snapshot never observes it.
func (g *DiGraph) Seal() *Snapshot {
	return &Snapshot{n: g.n, m: g.m, out: g.out.Seal()}
}

// cloneSet copies an out-set for a writer about to change it, with room
// for the one edge it is about to gain.
func cloneSet(s map[int]struct{}) map[int]struct{} {
	dup := make(map[int]struct{}, len(s)+1)
	//simrank:orderinvariant set copy; the resulting set is order-free
	for j := range s {
		dup[j] = struct{}{}
	}
	return dup
}

// N returns the number of nodes.
func (s *Snapshot) N() int { return s.n }

// M returns the number of edges.
func (s *Snapshot) M() int { return s.m }

// HasEdge reports whether edge (i, j) exists; out-of-range nodes have no
// edges (snapshots never panic — they serve the lock-free query path).
func (s *Snapshot) HasEdge(i, j int) bool {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		return false
	}
	_, ok := s.out.Get(i)[j]
	return ok
}

// Edges returns all edges sorted by (From, To) — the same enumeration
// DiGraph.Edges produces, from the sealed topology.
func (s *Snapshot) Edges() []Edge { return sortedEdges(s.m, &s.out) }

// New returns an empty directed graph with n nodes. Node ids are stored
// as int32, so n may not exceed math.MaxInt32.
func New(n int) *DiGraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	g := &DiGraph{out: cow.New(cloneSet)}
	g.AddNodes(n)
	return g
}

// FromEdges builds a graph with n nodes and the given edges. Duplicate
// edges are collapsed.
func FromEdges(n int, edges []Edge) *DiGraph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e.From, e.To)
	}
	return g
}

// N returns the number of nodes.
func (g *DiGraph) N() int { return g.n }

// AddNodes appends k isolated nodes, returning the id of the first new
// node. Existing ids are unchanged. It panics when the node count would
// exceed math.MaxInt32.
func (g *DiGraph) AddNodes(k int) int {
	if k < 0 {
		panic(fmt.Sprintf("graph: negative node increment %d", k))
	}
	if k > math.MaxInt32-g.n {
		panic(fmt.Sprintf("graph: %d + %d nodes exceed the int32 id range", g.n, k))
	}
	first := g.n
	for i := 0; i < k; i++ {
		g.out.Append(make(map[int]struct{}))
	}
	g.in = append(g.in, make([][]int32, k)...)
	g.n += k
	return first
}

// M returns the number of edges.
func (g *DiGraph) M() int { return g.m }

func (g *DiGraph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, g.n))
	}
}

// HasEdge reports whether edge (i, j) exists.
func (g *DiGraph) HasEdge(i, j int) bool {
	g.check(i)
	g.check(j)
	_, ok := g.out.Get(i)[j]
	return ok
}

// AddEdge inserts edge (i, j). It reports whether the edge was newly added
// (false if it already existed). Self-loops are allowed, matching the
// generality of the transition-matrix formulation.
func (g *DiGraph) AddEdge(i, j int) bool {
	g.check(i)
	g.check(j)
	if _, ok := g.out.Get(i)[j]; ok {
		return false
	}
	g.out.Own(i)[j] = struct{}{}
	in := g.in[j]
	p, _ := slices.BinarySearch(in, int32(i))
	g.in[j] = slices.Insert(in, p, int32(i))
	g.m++
	return true
}

// RemoveEdge deletes edge (i, j). It reports whether the edge existed.
func (g *DiGraph) RemoveEdge(i, j int) bool {
	g.check(i)
	g.check(j)
	if _, ok := g.out.Get(i)[j]; !ok {
		return false
	}
	delete(g.out.Own(i), j)
	in := g.in[j]
	p, _ := slices.BinarySearch(in, int32(i))
	g.in[j] = slices.Delete(in, p, p+1)
	g.m--
	return true
}

// InDegree returns |I(v)|, the number of in-neighbors of v.
func (g *DiGraph) InDegree(v int) int {
	g.check(v)
	return len(g.in[v])
}

// OutDegree returns |O(v)|.
func (g *DiGraph) OutDegree(v int) int {
	g.check(v)
	return len(g.out.Get(v))
}

// In returns I(v) in ascending order, aliasing the graph's storage: the
// caller must not modify it, and it is valid until the next mutation.
// An out-of-range v panics on the index. In is small enough to inline:
// the walk index calls it for every step it draws.
func (g *DiGraph) In(v int) []int32 { return g.in[v] }

// InNeighbors returns a copy of I(v) in ascending order.
func (g *DiGraph) InNeighbors(v int) []int {
	g.check(v)
	out := make([]int, len(g.in[v]))
	for k, u := range g.in[v] {
		out[k] = int(u)
	}
	return out
}

// OutNeighbors returns O(v) in ascending order.
func (g *DiGraph) OutNeighbors(v int) []int {
	g.check(v)
	return sortedKeys(g.out.Get(v))
}

// EachInNeighbor calls fn for every in-neighbor of v, in ascending order.
func (g *DiGraph) EachInNeighbor(v int, fn func(u int)) {
	g.check(v)
	for _, u := range g.in[v] {
		fn(int(u))
	}
}

// EachOutNeighbor calls fn for every out-neighbor of v (unordered).
func (g *DiGraph) EachOutNeighbor(v int, fn func(u int)) {
	g.check(v)
	//simrank:orderinvariant contract: callers fold commutatively (unordered by doc; audited in rankone.go, stats.go)
	for u := range g.out.Get(v) {
		fn(u)
	}
}

func sortedKeys(s map[int]struct{}) []int {
	out := make([]int, 0, len(s))
	//simrank:orderinvariant collects keys only; sorted before return
	for v := range s {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Edges returns all edges sorted by (From, To).
func (g *DiGraph) Edges() []Edge { return sortedEdges(g.m, &g.out) }

// sortedEdges enumerates an out-adjacency into the canonical (From, To)
// order — shared by the live graph and sealed snapshots, so the
// snapshot file format sees one enumeration no matter which side
// serialized it.
func sortedEdges(m int, out *cow.Table[map[int]struct{}]) []Edge {
	es := make([]Edge, 0, m)
	for i := 0; i < out.Len(); i++ {
		//simrank:orderinvariant collects edges only; canonically sorted below
		for j := range out.Get(i) {
			es = append(es, Edge{i, j})
		}
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].From != es[b].From {
			return es[a].From < es[b].From
		}
		return es[a].To < es[b].To
	})
	return es
}

// Clone returns an independent deep copy of g.
func (g *DiGraph) Clone() *DiGraph {
	c := &DiGraph{n: g.n, m: g.m, out: cow.New(cloneSet), in: make([][]int32, g.n)}
	for v := 0; v < g.n; v++ {
		c.out.Append(cloneSet(g.out.Get(v)))
		c.in[v] = slices.Clone(g.in[v])
	}
	return c
}

// AvgInDegree returns d, the average in-degree m/n (0 for the empty graph).
func (g *DiGraph) AvgInDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// BackwardTransition builds the backward transition matrix Q in CSR form:
// [Q]_{j,i} = 1/|I(j)| if (i, j) ∈ E, 0 otherwise — the row-normalized
// transpose of the adjacency matrix (footnote 2 of the paper).
func (g *DiGraph) BackwardTransition() *matrix.CSR {
	var is, js []int
	var vs []float64
	for j := 0; j < g.n; j++ {
		d := len(g.in[j])
		if d == 0 {
			continue
		}
		w := 1 / float64(d)
		for _, i := range g.in[j] {
			is = append(is, j)
			js = append(js, int(i))
			vs = append(vs, w)
		}
	}
	return matrix.NewCSR(g.n, g.n, is, js, vs)
}

// Adjacency builds the (unnormalized) adjacency matrix A with
// [A]_{i,j} = 1 iff (i, j) ∈ E.
func (g *DiGraph) Adjacency() *matrix.CSR {
	var is, js []int
	var vs []float64
	for i := 0; i < g.n; i++ {
		//simrank:orderinvariant COO triples; NewCSR sorts by (i,j) before building
		for j := range g.out.Get(i) {
			is = append(is, i)
			js = append(js, j)
			vs = append(vs, 1)
		}
	}
	return matrix.NewCSR(g.n, g.n, is, js, vs)
}

// Apply performs one unit update and reports whether the graph changed.
func (g *DiGraph) Apply(u Update) bool {
	if u.Insert {
		return g.AddEdge(u.Edge.From, u.Edge.To)
	}
	return g.RemoveEdge(u.Edge.From, u.Edge.To)
}

// Update is a unit link update: a single edge insertion or deletion
// (Section V: "batch update ... can be decomposed into a sequence of unit
// updates").
type Update struct {
	Edge   Edge
	Insert bool // true = insertion, false = deletion
}

func (u Update) String() string {
	op := "-"
	if u.Insert {
		op = "+"
	}
	return fmt.Sprintf("%s(%d,%d)", op, u.Edge.From, u.Edge.To)
}
