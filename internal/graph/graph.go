// Package graph implements the dynamic directed graph substrate: sorted
// out- and in-neighbour lists O(v) and I(v), which Inc-SR, the batch
// kernel and the approx walk index read in place, the products Q·x and
// Qᵀ·x over them, snapshots, edge-list I/O, and the degree statistics
// that the paper's complexity analysis (average in-degree d) is stated
// in terms of.
//
// Nodes are dense integers 0..n-1. An edge (i, j) is directed from i to j,
// matching the paper: "each edge depicts a reference from one paper to
// another", and the backward transition matrix Q has
// [Q]_{j,i} = 1/|I(j)| iff (i, j) ∈ E.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cow"
	"repro/internal/matrix"
)

// Edge is a directed edge from From to To.
type Edge struct {
	From, To int
}

// DiGraph is a mutable directed graph over nodes 0..N-1. Both adjacencies
// are ascending []int32 lists, the one copy of each that the update
// algorithms and the walk index read: O(a) holds the rows of Qᵀ and
// answers edge membership by binary search, I(a) the rows of Q.
type DiGraph struct {
	n int
	// out[v] is O(v) in ascending order, one row per node in a
	// copy-on-write table that Seal shares with snapshots. Only the
	// out-adjacency is sealed: snapshots serve HasEdge and Edges, both
	// out-side; the in-adjacency stays writer-private.
	out cow.Table[[]int32]
	// in[v] is I(v) in ascending order.
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
	out  cow.Table[[]int32]
}

// Seal returns an immutable snapshot sharing the current out-adjacency:
// ⌈n/64⌉ block pointer copies (cow.Table.Seal), no per-edge work. The
// writer's next mutation of a row clones the row's block header and
// then its out-list, so the snapshot never observes it.
func (g *DiGraph) Seal() *Snapshot {
	return &Snapshot{n: g.n, m: g.m, out: g.out.Seal()}
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
	_, ok := slices.BinarySearch(s.out.Get(i), int32(j))
	return ok
}

// Edges returns all edges sorted by (From, To) — the same enumeration
// DiGraph.Edges produces, from the sealed topology.
func (s *Snapshot) Edges() []Edge { return edges(s.m, &s.out) }

// New returns an empty directed graph with n nodes. Node ids are stored
// as int32, so n may not exceed math.MaxInt32.
func New(n int) *DiGraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	g := &DiGraph{out: cow.New(slices.Clone[[]int32])}
	g.AddNodes(n)
	return g
}

// FromEdges builds a graph with n nodes and the given edges. Duplicate
// edges are collapsed. It inserts a copy of the edges sorted by
// (From, To), so every insert appends to both of its lists and the build
// takes O(m log m) whatever order the edges come in.
func FromEdges(n int, edges []Edge) *DiGraph {
	g := New(n)
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, cmpEdges)
	for _, e := range sorted {
		g.AddEdge(e.From, e.To)
	}
	return g
}

// cmpEdges orders edges by (From, To).
func cmpEdges(a, b Edge) int { return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To)) }

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
		g.out.Append(nil)
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
	_, ok := slices.BinarySearch(g.out.Get(i), int32(j))
	return ok
}

// AddEdge inserts edge (i, j). It reports whether the edge was newly added
// (false if it already existed). Self-loops are allowed, matching the
// generality of the transition-matrix formulation.
func (g *DiGraph) AddEdge(i, j int) bool {
	g.check(i)
	g.check(j)
	p, ok := slices.BinarySearch(g.out.Get(i), int32(j))
	if ok {
		return false
	}
	g.out.Set(i, slices.Insert(g.out.Own(i), p, int32(j)))
	p, _ = slices.BinarySearch(g.in[j], int32(i))
	g.in[j] = slices.Insert(g.in[j], p, int32(i))
	g.m++
	return true
}

// RemoveEdge deletes edge (i, j). It reports whether the edge existed.
func (g *DiGraph) RemoveEdge(i, j int) bool {
	g.check(i)
	g.check(j)
	p, ok := slices.BinarySearch(g.out.Get(i), int32(j))
	if !ok {
		return false
	}
	g.out.Set(i, slices.Delete(g.out.Own(i), p, p+1))
	p, _ = slices.BinarySearch(g.in[j], int32(i))
	g.in[j] = slices.Delete(g.in[j], p, p+1)
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

// Out returns O(v) in ascending order, aliasing the graph's storage
// under the same rules as In. It is small enough to inline: Inc-SR
// reads it as row v of Qᵀ.
func (g *DiGraph) Out(v int) []int32 { return g.out.Get(v) }

// Edges returns all edges sorted by (From, To).
func (g *DiGraph) Edges() []Edge { return edges(g.m, &g.out) }

// edges enumerates an out-adjacency in row order, which is the canonical
// (From, To) order because each row is ascending — shared by the live
// graph and sealed snapshots, so the snapshot file format sees one
// enumeration no matter which side serialized it.
func edges(m int, out *cow.Table[[]int32]) []Edge {
	es := make([]Edge, 0, m)
	for i := 0; i < out.Len(); i++ {
		for _, j := range out.Get(i) {
			es = append(es, Edge{i, int(j)})
		}
	}
	return es
}

// Clone returns an independent deep copy of g.
func (g *DiGraph) Clone() *DiGraph {
	c := &DiGraph{n: g.n, m: g.m, out: cow.New(slices.Clone[[]int32]), in: make([][]int32, g.n)}
	for v := 0; v < g.n; v++ {
		c.out.Append(slices.Clone(g.out.Get(v)))
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

// BackwardTransition builds the backward transition matrix Q as a dense
// n×n matrix: [Q]_{j,i} = 1/|I(j)| if (i, j) ∈ E, 0 otherwise — the
// row-normalized transpose of the adjacency matrix (footnote 2 of the
// paper). It is O(n²): the Inc-SVD baseline, the experiments and test
// references build it, while Inc-SR, Inc-uSR and the batch kernel read
// Q from the in-lists (In, MulQ, MulQT).
func (g *DiGraph) BackwardTransition() *matrix.Dense {
	q := matrix.NewDense(g.n, g.n)
	for j, in := range g.in {
		w := 1 / float64(len(in))
		row := q.Row(j)
		for _, i := range in {
			row[i] = w
		}
	}
	return q
}

// MulQ writes dst = Q·x: dst[a] = Σ_{i ∈ I(a)} w·x[i] with w = 1/|I(a)|,
// added in ascending i, and +0 for a node without in-links.
//
//simrank:noalloc
func (g *DiGraph) MulQ(dst, x []float64) {
	for a := range dst {
		in := g.in[a]
		w := 1 / float64(len(in))
		var sum float64
		for _, i := range in {
			sum += w * x[i]
		}
		dst[a] = sum
	}
}

// MulQT writes dst = Qᵀ·x, scattering each non-zero x[a] over I(a) with
// weight 1/|I(a)|, rows in ascending a.
//
//simrank:noalloc
func (g *DiGraph) MulQT(dst, x []float64) {
	clear(dst)
	for a, xa := range x {
		in := g.in[a]
		if xa == 0 || len(in) == 0 {
			continue
		}
		w := 1 / float64(len(in))
		for _, i := range in {
			dst[i] += w * xa
		}
	}
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
