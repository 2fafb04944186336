package simstore

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// Packed stores the symmetric S in upper-triangular row-major packed
// form: entry (i, j) with i ≤ j lives at start[i] + (j − i), for
// n(n+1)/2 float64s total — 8·n(n+1)/2 bytes, just over half the dense
// layout's 8n². Both mirror entries of a pair share one cell, so the
// symmetric write-backs of Inc-SR/Inc-uSR (AddSym) touch half the
// memory, and the store halves the serving footprint of every exact
// engine.
//
// The triangle is one flat array, the front buffer of the cells payload
// the dense store shares: Seal hands out an immutable view of it, and
// the first write after a Seal flips to a second triangle, re-syncing
// only the cells written since that triangle was last the front. A
// writer behind the MVCC facade therefore holds two triangles (8n²
// bytes, half of dense's 16n²) and allocates nothing per commit; a store
// that is never sealed holds one.
//
// Row materializes into a single reusable scratch buffer (allocated at
// construction), preserving the warm-Apply zero-allocation guarantee;
// concurrent readers must use ConcurrentRow/UpperRow/At, which never
// touch the scratch.
type Packed struct {
	n     int
	start []int // start[i] = packed offset of (i, i)
	cells

	row []float64 // scratch for Row (single-writer contract)

	exact
}

// NewPacked returns a zeroed n-node packed store.
func NewPacked(n int) *Packed {
	if n < 0 {
		panic("simstore: negative node count")
	}
	p := &Packed{
		n:     n,
		start: make([]int, n),
		row:   make([]float64, n),
	}
	off := 0
	for i := 0; i < n; i++ {
		p.start[i] = off
		off += n - i
	}
	p.front = make([]float64, off)
	return p
}

// idx maps (i, j) to its packed offset, folding the lower triangle onto
// the upper one.
func (p *Packed) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return p.start[i] + j - i
}

// Seal returns an immutable view sharing the triangle; the next write
// to the receiver flips to the other one.
func (p *Packed) Seal() Store {
	if p.sealed {
		return p
	}
	return &Packed{n: p.n, start: p.start, cells: p.seal()}
}

// N returns the node count.
func (p *Packed) N() int { return p.n }

// At returns s(i, j) — pure index arithmetic, safe for concurrent
// readers.
func (p *Packed) At(i, j int) float64 { return p.front[p.idx(i, j)] }

// Set writes the shared cell of the unordered pair {i, j}.
func (p *Packed) Set(i, j int, v float64) {
	off := p.idx(i, j)
	if p.armed {
		p.touch(off)
	}
	p.front[off] = v
}

// Add accumulates v into the shared cell of {i, j}.
func (p *Packed) Add(i, j int, v float64) {
	off := p.idx(i, j)
	if p.armed {
		p.touch(off)
	}
	p.front[off] += v
}

// AddSym applies v·(e_i·e_jᵀ + e_j·e_iᵀ). Off-diagonal the two mirror
// entries are one packed cell, which accumulates v once; the diagonal is
// bumped twice (two sequential adds), matching the dense layout's
// ((x+v)+v) bit for bit.
func (p *Packed) AddSym(i, j int, v float64) {
	off := p.idx(i, j)
	if p.armed {
		p.touch(off)
	}
	p.front[off] += v
	if i == j {
		p.front[off] += v
	}
}

// upperSeg returns the contiguous packed segment of row i — (i, i), …,
// (i, n−1) — aliasing the front triangle.
func (p *Packed) upperSeg(i int) []float64 {
	return p.front[p.start[i] : p.start[i]+p.n-i]
}

// rowInto materializes row i into dst: the prefix j < i gathers the
// column stored in earlier rows' cells, the suffix j ≥ i is the
// contiguous packed segment.
func (p *Packed) rowInto(dst []float64, i int) {
	for j := 0; j < i; j++ {
		dst[j] = p.front[p.start[j]+i-j]
	}
	copy(dst[i:], p.upperSeg(i))
}

// Row materializes row i into the store's scratch buffer. The view is
// valid until the next Row/ColInto call — the single-writer contract of
// core.SimStore — and allocates nothing. On a sealed view (which has no
// scratch, because concurrent readers would race on it) Row allocates a
// fresh slice per call.
func (p *Packed) Row(i int) []float64 {
	if p.sealed {
		return p.ConcurrentRow(i)
	}
	p.rowInto(p.row, i)
	return p.row
}

// ConcurrentRow materializes row i into a fresh slice, safe under
// concurrent readers (one O(n) copy per cold query row is the packed
// backend's read-path trade).
func (p *Packed) ConcurrentRow(i int) []float64 {
	out := make([]float64, p.n)
	p.rowInto(out, i)
	return out
}

// UpperRow returns the packed segment (a, a), …, (a, n−1) aliasing
// storage: race-free and copy-free, the global top-k scan shape.
// Callers must not write through it on a store that has been sealed
// (snapshot restore fills a fresh store through it, which is fine).
func (p *Packed) UpperRow(a int) []float64 { return p.upperSeg(a) }

// ColInto copies column j into dst — by symmetry, row j.
func (p *Packed) ColInto(dst []float64, j int) { p.rowInto(dst, j) }

// ToDense materializes the full symmetric matrix.
func (p *Packed) ToDense() *matrix.Dense {
	d := matrix.NewDense(p.n, p.n)
	for i := 0; i < p.n; i++ {
		p.rowInto(d.Row(i), i)
	}
	return d
}

// SetFromDense overwrites the store with src's upper triangle (src must
// be n×n; the batch kernel's output is symmetric up to rounding, and the
// packed store canonicalizes on the upper entries).
func (p *Packed) SetFromDense(src *matrix.Dense) {
	if src.Rows != p.n || src.Cols != p.n {
		panic("simstore: SetFromDense dimension mismatch")
	}
	tri := p.rewrite()
	for i := 0; i < p.n; i++ {
		copy(tri[p.start[i]:], src.Row(i)[i:])
	}
}

// Update applies one unit update through the store's workspace; see
// Store.Update.
//
//simrank:noalloc
func (p *Packed) Update(g *graph.DiGraph, up graph.Update, prm Params) (core.Stats, error) {
	return p.update(p, g, up, prm)
}

// Recompute applies ups to g (see Store), then reruns the batch kernel
// on two transient dense buffers (its sparse-dense products need full
// rows) and compresses the result back into the triangle: a recompute
// transiently costs 16n² bytes, but the steady state never retains a
// dense buffer.
func (p *Packed) Recompute(g *graph.DiGraph, ups []graph.Update, prm Params) {
	p.SetFromDense(batchScores(p.follow(g, ups), prm, p.workers))
}

// AddNodes returns a packed store over n+count nodes: each old row's
// packed segment is copied into the prefix of its new (longer) segment,
// new diagonals get diag. The result is a fresh, never-sealed store.
func (p *Packed) AddNodes(count int, diag float64) Store {
	next := NewPacked(p.n + count)
	next.workers = p.workers
	for i := 0; i < p.n; i++ {
		copy(next.upperSeg(i)[:p.n-i], p.upperSeg(i))
	}
	for v := p.n; v < next.n; v++ {
		next.Set(v, v, diag)
	}
	return next
}

// MemBytes reports the serving payload: the triangle, the start table
// and the row scratch — 4n² + 20n bytes, about half of dense. The MVCC
// double buffer, when held, is writer-side working memory and not
// counted.
func (p *Packed) MemBytes() int64 {
	return int64(len(p.front)+len(p.start)+len(p.row)) * 8
}

// Backend names the implementation.
func (p *Packed) Backend() Backend { return BackendPacked }
