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
// The triangle is held in row-aligned chunks (each chunk a run of whole
// rows' packed segments, ~packedChunkFloats floats) so the store can be
// sealed copy-on-write for the MVCC read path: Seal shares every chunk
// with the returned immutable view, and the writer duplicates a chunk
// the first time it lands a write in it after a Seal. A store that is
// never sealed never copies a chunk — the exact-update hot path stays
// allocation-free — and a sealed view's chunks are never written in
// place, so any number of views of any age read safely with no reader
// tracking at all.
//
// Row materializes into a single reusable scratch buffer (allocated at
// construction), preserving the warm-Apply zero-allocation guarantee;
// concurrent readers must use ConcurrentRow/UpperRow/At, which never
// touch the scratch.
type Packed struct {
	n     int
	start []int // start[i] = packed offset of (i, i)

	// Chunked triangle payload. rowChunk[i] names the chunk holding row
	// i's packed segment; chunkOff[c] is the global packed offset where
	// chunk c begins. All three index tables are immutable after
	// construction and shared with sealed views.
	rowChunk []int
	chunkOff []int
	chunks   [][]float64

	// owned is nil until the first Seal (never-sealed stores skip COW
	// entirely); afterwards owned[c] reports that chunk c is exclusively
	// the writer's. Seal clears it; a write into a shared chunk
	// duplicates the chunk first.
	owned []bool

	// sealed marks this instance as an immutable view: every mutation
	// panics, Seal returns the receiver, Row materializes fresh.
	sealed bool

	row []float64 // scratch for Row (single-writer contract)

	exact
}

// packedChunkFloats is the COW granularity target: ~64 KiB of payload
// per chunk. Chunks hold whole rows so UpperRow can keep returning a
// contiguous alias; a single row longer than the target becomes its own
// chunk.
const packedChunkFloats = 8192

// NewPacked returns a zeroed n-node packed store.
func NewPacked(n int) *Packed {
	if n < 0 {
		panic("simstore: negative node count")
	}
	p := &Packed{
		n:        n,
		start:    make([]int, n),
		rowChunk: make([]int, n),
		row:      make([]float64, n),
	}
	off := 0
	for i := 0; i < n; i++ {
		p.start[i] = off
		off += n - i
	}
	// Cut the triangle into runs of whole rows of ~packedChunkFloats.
	chunkFirst := 0
	for i := 0; i < n; i++ {
		if i > chunkFirst && p.start[i]+n-i-p.start[chunkFirst] > packedChunkFloats {
			p.chunkOff = append(p.chunkOff, p.start[chunkFirst])
			p.chunks = append(p.chunks, make([]float64, p.start[i]-p.start[chunkFirst]))
			chunkFirst = i
		}
		p.rowChunk[i] = len(p.chunks)
	}
	if n > 0 {
		p.chunkOff = append(p.chunkOff, p.start[chunkFirst])
		p.chunks = append(p.chunks, make([]float64, off-p.start[chunkFirst]))
	}
	return p
}

// idx maps (i, j) to its global packed offset, folding the lower
// triangle onto the upper one.
func (p *Packed) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return p.start[i] + j - i
}

// loc resolves (i, j) to its chunk and in-chunk offset.
func (p *Packed) loc(i, j int) (c, off int) {
	if i > j {
		i, j = j, i
	}
	c = p.rowChunk[i]
	return c, p.start[i] + j - i - p.chunkOff[c]
}

// ensureOwned duplicates chunk c if it is shared with a sealed view, so
// the coming write cannot race that view's readers.
func (p *Packed) ensureOwned(c int) {
	if p.sealed {
		panic("simstore: write to a sealed packed view")
	}
	if p.owned != nil && !p.owned[c] {
		dup := make([]float64, len(p.chunks[c]))
		copy(dup, p.chunks[c])
		p.chunks[c] = dup
		p.owned[c] = true
	}
}

// Seal returns an immutable view sharing every chunk; subsequent writes
// to the receiver copy-on-write the chunks they touch.
func (p *Packed) Seal() Store {
	if p.sealed {
		return p
	}
	if p.owned == nil {
		p.owned = make([]bool, len(p.chunks))
	} else {
		for c := range p.owned {
			p.owned[c] = false
		}
	}
	view := &Packed{
		n:        p.n,
		start:    p.start,
		rowChunk: p.rowChunk,
		chunkOff: p.chunkOff,
		chunks:   append([][]float64(nil), p.chunks...),
		sealed:   true,
	}
	return view
}

// N returns the node count.
func (p *Packed) N() int { return p.n }

// At returns s(i, j) — pure index arithmetic, safe for concurrent
// readers.
func (p *Packed) At(i, j int) float64 {
	c, off := p.loc(i, j)
	return p.chunks[c][off]
}

// Set writes the shared cell of the unordered pair {i, j}.
func (p *Packed) Set(i, j int, v float64) {
	c, off := p.loc(i, j)
	if p.sealed || p.owned != nil {
		p.ensureOwned(c)
	}
	p.chunks[c][off] = v
}

// Add accumulates v into the shared cell of {i, j}.
func (p *Packed) Add(i, j int, v float64) {
	c, off := p.loc(i, j)
	if p.sealed || p.owned != nil {
		p.ensureOwned(c)
	}
	p.chunks[c][off] += v
}

// AddSym applies v·(e_i·e_jᵀ + e_j·e_iᵀ). Off-diagonal the two mirror
// entries are one packed cell, which accumulates v once; the diagonal is
// bumped twice (two sequential adds), matching the dense layout's
// ((x+v)+v) bit for bit.
func (p *Packed) AddSym(i, j int, v float64) {
	c, off := p.loc(i, j)
	if p.sealed || p.owned != nil {
		p.ensureOwned(c)
	}
	p.chunks[c][off] += v
	if i == j {
		p.chunks[c][off] += v
	}
}

// BeginConcurrentWrites readies the store for Inc-uSR's row-parallel
// write-back (core.ConcurrentWriteStore). There is no up-front flip —
// chunk copy-on-write happens write by write — but concurrent owners
// must never share a chunk, which partitions aligned through
// AlignConcurrentBoundary guarantee: a pair {a, b}'s cell lives in row
// min(a, b)'s chunk, so every write (including a COW duplication of the
// chunk and its owned-bit update) stays inside the owning worker's
// chunks. Returns false: a pair's mirror entries share one packed cell,
// so AddSym is already a single-cell write and no mirror phase exists.
func (p *Packed) BeginConcurrentWrites() bool {
	if p.sealed {
		panic("simstore: write to a sealed packed view")
	}
	return false
}

// AlignConcurrentBoundary rounds r up to the next chunk-start row (or
// n): writing any cell of a chunk may duplicate the whole chunk, so a
// partition boundary inside a chunk would let two goroutines race on
// it.
func (p *Packed) AlignConcurrentBoundary(r int) int {
	for r > 0 && r < p.n && p.rowChunk[r] == p.rowChunk[r-1] {
		r++
	}
	return r
}

// upperSeg returns the contiguous packed segment of row i — (i, i), …,
// (i, n−1) — aliasing chunk storage. Chunks hold whole rows, so the
// segment never straddles a chunk boundary.
func (p *Packed) upperSeg(i int) []float64 {
	c := p.rowChunk[i]
	off := p.start[i] - p.chunkOff[c]
	return p.chunks[c][off : off+p.n-i]
}

// rowInto materializes row i into dst: the prefix j < i gathers the
// column stored in earlier rows' cells, the suffix j ≥ i is the
// contiguous packed segment.
func (p *Packed) rowInto(dst []float64, i int) {
	for j := 0; j < i; j++ {
		c := p.rowChunk[j]
		dst[j] = p.chunks[c][p.start[j]+i-j-p.chunkOff[c]]
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
	for i := 0; i < p.n; i++ {
		if p.sealed || p.owned != nil {
			p.ensureOwned(p.rowChunk[i])
		}
		copy(p.upperSeg(i), src.Row(i)[i:])
	}
}

// Update applies one unit update through the store's workspace; see
// Store.Update. Chunk sharing is tracked write by write, so there are no
// dirty rows to record.
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
	p.Close() // as in Dense.AddNodes
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

// MemBytes reports the packed payload plus the offset tables and row
// scratch — ≈ 4n² + 24n bytes, about half of dense.
func (p *Packed) MemBytes() int64 {
	var payload int64
	for _, c := range p.chunks {
		payload += int64(len(c))
	}
	return payload*8 + int64(len(p.start)+len(p.rowChunk)+len(p.chunkOff))*8 + int64(len(p.row))*8
}

// Backend names the implementation.
func (p *Packed) Backend() Backend { return BackendPacked }
