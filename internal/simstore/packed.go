package simstore

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// PackedView is an immutable upper-triangular score store: what
// Packed.Seal returns, and the read half every Packed writer embeds. It
// has no method that writes.
type PackedView struct {
	n     int
	start []int // start[i] = packed offset of (i, i)
	tri   []float64
}

// Packed stores the symmetric S in upper-triangular row-major packed
// form: entry (i, j) with i ≤ j lives at start[i] + (j − i), for
// n(n+1)/2 float64s total — 8·n(n+1)/2 bytes, just over half the dense
// layout's 8n². Both mirror entries of a pair share one cell, so the
// symmetric write-backs of Inc-SR (AddSym) touch half the
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
	PackedView
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
		PackedView: PackedView{n: n, start: make([]int, n)},
		row:        make([]float64, n),
	}
	off := 0
	for i := 0; i < n; i++ {
		p.start[i] = off
		off += n - i
	}
	p.tri = make([]float64, off)
	p.front = &p.tri
	return p
}

// idx maps (i, j) to its packed offset, folding the lower triangle onto
// the upper one.
func (p *PackedView) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return p.start[i] + j - i
}

// Seal returns an immutable view sharing the triangle; the next write
// to the receiver flips to the other one.
func (p *Packed) Seal() View {
	p.seal()
	v := p.PackedView
	return &v
}

// N returns the node count.
func (p *PackedView) N() int { return p.n }

// At returns s(i, j) — pure index arithmetic, safe for concurrent
// readers.
func (p *PackedView) At(i, j int) float64 { return p.tri[p.idx(i, j)] }

// Set writes the shared cell of the unordered pair {i, j}.
func (p *Packed) Set(i, j int, v float64) {
	off := p.idx(i, j)
	if p.armed {
		p.touch(off)
	}
	p.tri[off] = v
}

// Add accumulates v into the shared cell of {i, j}.
func (p *Packed) Add(i, j int, v float64) {
	off := p.idx(i, j)
	if p.armed {
		p.touch(off)
	}
	p.tri[off] += v
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
	p.tri[off] += v
	if i == j {
		p.tri[off] += v
	}
}

// upperSeg returns the contiguous packed segment of row i — (i, i), …,
// (i, n−1) — aliasing the triangle.
func (p *PackedView) upperSeg(i int) []float64 {
	return p.tri[p.start[i] : p.start[i]+p.n-i]
}

// rowInto materializes row i into dst: the prefix j < i gathers the
// column stored in earlier rows' cells, the suffix j ≥ i is the
// contiguous packed segment.
func (p *PackedView) rowInto(dst []float64, i int) {
	for j := 0; j < i; j++ {
		dst[j] = p.tri[p.start[j]+i-j]
	}
	copy(dst[i:], p.upperSeg(i))
}

// Row materializes row i into the writer's scratch buffer. The view is
// valid until the next Row call — the single-writer contract of
// core.SimStore — and allocates nothing.
func (p *Packed) Row(i int) []float64 {
	p.rowInto(p.row, i)
	return p.row
}

// ConcurrentRow materializes row i into a fresh slice, safe under
// concurrent readers (one O(n) copy per cold query row is the packed
// backend's read-path trade).
func (p *PackedView) ConcurrentRow(i int) []float64 {
	out := make([]float64, p.n)
	p.rowInto(out, i)
	return out
}

// UpperRow returns the packed segment (a, a), …, (a, n−1) aliasing
// storage: race-free and copy-free, the global top-k scan shape.
// Callers must not write through it on a store that has been sealed
// (snapshot restore fills a fresh store through it, which is fine).
func (p *PackedView) UpperRow(a int) []float64 { return p.upperSeg(a) }

// ToDense materializes the full symmetric matrix.
func (p *PackedView) ToDense() *matrix.Dense {
	d := matrix.NewDense(p.n, p.n)
	for i := 0; i < p.n; i++ {
		p.rowInto(d.Row(i), i)
	}
	return d
}

// SetFromDense overwrites the store with src's upper triangle (src must
// be n×n; the batch kernel's output is exactly symmetric, so nothing of
// it is lost).
func (p *Packed) SetFromDense(src *matrix.Dense) {
	if src.Rows != p.n || src.Cols != p.n {
		panic("simstore: SetFromDense dimension mismatch")
	}
	p.rewrite()
	for i := 0; i < p.n; i++ {
		copy(p.tri[p.start[i]:], src.Row(i)[i:])
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
// transiently costs 16n² bytes, plus n²/4 for the kernel's support
// bitmaps, but the steady state never retains a dense buffer.
func (p *Packed) Recompute(g *graph.DiGraph, ups []graph.Update, prm Params) {
	follow(g, ups)
	p.SetFromDense(batchScores(g, prm))
}

// AddNodes returns a packed store over n+count nodes: each old row's
// packed segment is copied into the prefix of its new (longer) segment,
// new diagonals get diag. The result is a fresh, never-sealed store.
func (p *Packed) AddNodes(count int, diag float64) Store {
	next := NewPacked(p.n + count)
	for i := 0; i < p.n; i++ {
		copy(next.upperSeg(i)[:p.n-i], p.upperSeg(i))
	}
	for v := p.n; v < next.n; v++ {
		next.Set(v, v, diag)
	}
	return next
}

// MemBytes reports the serving payload: the triangle and the start
// table, 4n² + 12n bytes, about half of dense.
func (p *PackedView) MemBytes() int64 {
	return int64(len(p.tri)+len(p.start)) * 8
}

// MemBytes reports the writer's serving payload: the view's plus the row
// scratch, 4n² + 20n bytes. The MVCC double buffer, when held, is
// writer-side working memory and not counted.
func (p *Packed) MemBytes() int64 {
	return p.PackedView.MemBytes() + int64(len(p.row))*8
}

// Backend names the implementation.
func (p *PackedView) Backend() Backend { return BackendPacked }
