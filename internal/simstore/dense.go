package simstore

import (
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// Dense is the classic backend: a row-major n×n matrix.Dense. Every
// read and write indexes through the matrix header, so an engine on this
// store is bit-identical (values and allocation profile) to the
// pre-interface engine that held the matrix directly.
//
// MVCC: the matrix's data is the front buffer of the shared cells
// payload. Seal hands out an immutable view of it, and the first write
// after a Seal flips to the second n×n buffer, re-syncing only the cells
// written since that buffer was last the front. A warm single writer
// therefore ping-pongs between two fixed n×n buffers with zero
// steady-state allocations, and readers of any sealed view are never
// raced: the writer only ever touches the buffer no live view references
// (the facade checks, and abandons the buffer to the GC instead when a
// straggling reader still pins it).
type Dense struct {
	// m is the n×n header over cells.front; the write paths re-aim it
	// after every call that may swap buffers.
	m matrix.Dense
	cells
	exact
}

// NewDense returns a zeroed n×n dense store.
func NewDense(n int) *Dense { return WrapDense(matrix.NewDense(n, n)) }

// WrapDense adopts an existing square matrix (snapshot restore, tests).
func WrapDense(m *matrix.Dense) *Dense {
	if m.Rows != m.Cols {
		panic("simstore: dense store requires a square matrix")
	}
	return &Dense{m: *m, cells: cells{front: m.Data}}
}

// Matrix exposes the current backing matrix for reads (snapshot
// serialization, tests). Writes must go through Set/Add/AddSym, which
// keep the copy-on-write log.
func (d *Dense) Matrix() *matrix.Dense { return &d.m }

// Seal returns an immutable view of the current buffer and marks it
// copy-on-write: the next mutation flips to the other buffer.
func (d *Dense) Seal() Store {
	if d.sealed {
		return d
	}
	return &Dense{m: d.m, cells: d.seal()}
}

// N returns the node count.
func (d *Dense) N() int { return d.m.Rows }

// At returns s(i, j).
func (d *Dense) At(i, j int) float64 { return d.m.At(i, j) }

// Set writes entry (i, j) only — the dense layout stores both triangles.
func (d *Dense) Set(i, j int, v float64) {
	if d.armed {
		d.touch(i*d.m.Cols + j)
		d.m.Data = d.front
	}
	d.m.Set(i, j, v)
}

// Add accumulates v into entry (i, j).
func (d *Dense) Add(i, j int, v float64) {
	if d.armed {
		d.touch(i*d.m.Cols + j)
		d.m.Data = d.front
	}
	d.m.Add(i, j, v)
}

// AddSym accumulates v into (i, j) and (j, i), logging both mirror
// cells; see matrix.Dense.AddSym.
func (d *Dense) AddSym(i, j int, v float64) {
	if d.armed {
		d.touch(i*d.m.Cols + j)
		d.touch(j*d.m.Cols + i)
		d.m.Data = d.front
	}
	d.m.AddSym(i, j, v)
}

// Row returns row i aliasing the matrix storage (no scratch involved, so
// for this backend the view stays valid across calls).
func (d *Dense) Row(i int) []float64 { return d.m.Row(i) }

// ConcurrentRow is Row: the alias is immutable on a sealed view (and
// under the single-writer contract on a live store), so concurrent
// readers share it safely.
func (d *Dense) ConcurrentRow(i int) []float64 { return d.m.Row(i) }

// UpperRow returns the suffix (a, a), …, (a, n−1) of row a, aliasing
// storage.
func (d *Dense) UpperRow(a int) []float64 { return d.m.Row(a)[a:] }

// ColInto copies column j into dst.
func (d *Dense) ColInto(dst []float64, j int) { d.m.ColInto(dst, j) }

// ToDense returns an independent dense copy of S.
func (d *Dense) ToDense() *matrix.Dense { return d.m.Clone() }

// Update applies one unit update through the store's workspace; see
// Store.Update.
//
//simrank:noalloc
func (d *Dense) Update(g *graph.DiGraph, up graph.Update, p Params) (core.Stats, error) {
	return d.update(d, g, up, p)
}

// Recompute applies ups to g (see Store), then reruns the batch kernel,
// ping-ponging between the live buffer and the workspace's persistent
// scratch — a warm recompute at one worker allocates nothing. The kernel
// overwrites every cell (it starts from S₀ = (1−C)I), so a pending flip
// swaps buffers without the syncing copy.
func (d *Dense) Recompute(g *graph.DiGraph, ups []graph.Update, p Params) {
	ws := d.follow(g, ups)
	d.m.Data = d.rewrite()
	batch.MatrixFormInto(&d.m, ws.DenseScratch(), ws.TransitionCSR(), p.C, p.K, d.workers)
}

// AddNodes returns a dense store over n+count nodes: old rows copied
// into the top-left block, new diagonal entries set to diag — exactly
// the fixed-point extension of the new graph's S. The result is a fresh,
// never-sealed store; sealed views of the old size keep their own
// buffers.
func (d *Dense) AddNodes(count int, diag float64) Store {
	oldN := d.m.Rows
	n := oldN + count
	next := matrix.NewDense(n, n)
	for r := 0; r < oldN; r++ {
		copy(next.Row(r)[:oldN], d.m.Row(r))
	}
	for v := oldN; v < n; v++ {
		next.Set(v, v, diag)
	}
	// The workspace is sized for the old n; the grown store builds its
	// own on its first write.
	grown := WrapDense(next)
	grown.workers = d.workers
	return grown
}

// MemBytes reports the 8n² serving payload (the MVCC double buffer, when
// held, is writer-side working memory and intentionally not counted).
func (d *Dense) MemBytes() int64 { return int64(len(d.m.Data)) * 8 }

// Backend names the implementation.
func (d *Dense) Backend() Backend { return BackendDense }
