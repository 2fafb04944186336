package simstore

import (
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// Dense is the classic backend: a row-major n×n matrix.Dense. Every
// operation delegates straight to the matrix, so an engine on this store
// is bit-identical (values and allocation profile) to the pre-interface
// engine that held the matrix directly.
//
// MVCC: Seal hands out an immutable wrapper around the current buffer
// and arms the double-buffer — the first write after a Seal flips to the
// second buffer, first re-syncing only the rows the sealed buffer is
// ahead by (the dirty-row sets Update recorded since that buffer was
// last the front). A warm single-writer therefore ping-pongs between two
// fixed n×n buffers with zero steady-state allocations, and readers of
// any sealed view are never raced: the writer only ever touches the
// buffer no live view references (the facade checks, and abandons the
// buffer to the GC instead when a straggling reader still pins it).
type Dense struct {
	m *matrix.Dense
	exact

	// sealed marks this instance as an immutable view: every mutation
	// panics, Seal returns the receiver.
	sealed bool

	// Double-buffer state, dormant (zero-cost) until the first Seal:
	// cowSeen arms the machinery, cow means the latest sealed view
	// references m and the next write must flip first. back is the other
	// buffer; backAll says it is wholly stale (fresh, abandoned, or
	// post-recompute), otherwise it differs from m exactly on the rows in
	// behind.
	cowSeen    bool
	cow        bool
	back       *matrix.Dense
	backAll    bool
	behind     []int
	behindMark []bool
}

// NewDense returns a zeroed n×n dense store.
func NewDense(n int) *Dense { return &Dense{m: matrix.NewDense(n, n)} }

// WrapDense adopts an existing square matrix (snapshot restore, tests).
func WrapDense(m *matrix.Dense) *Dense {
	if m.Rows != m.Cols {
		panic("simstore: dense store requires a square matrix")
	}
	return &Dense{m: m}
}

// Matrix exposes the current backing matrix for reads (snapshot
// serialization, tests). Writers that bypass Set/Add/AddSym must use
// WritableMatrix instead once the store has ever been sealed.
func (d *Dense) Matrix() *matrix.Dense { return d.m }

// WritableMatrix returns the buffer the next writes belong in, flipping
// the double-buffer first if the current one is referenced by a sealed
// view. The flip brings the buffer fully up to date, so partial writes
// are safe.
func (d *Dense) WritableMatrix() *matrix.Dense {
	d.beforeWrite()
	return d.m
}

// WritableMatrixDiscard is WritableMatrix for callers about to rewrite
// EVERY cell (the batch recompute): a needed flip swaps buffers without
// syncing any content — the returned buffer holds garbage until the
// caller's full rewrite lands. Skips the 8n²-byte copy a syncing flip
// would immediately see overwritten. Callers must still follow up with
// MarkAllRowsDirty (idempotent here; the swap already declared the
// other buffer wholly stale).
func (d *Dense) WritableMatrixDiscard() *matrix.Dense {
	if d.sealed {
		panic("simstore: write to a sealed dense view")
	}
	if d.cow {
		if d.back == nil {
			d.back = matrix.NewDense(d.m.Rows, d.m.Cols)
		}
		d.resetBehind()
		d.m, d.back = d.back, d.m
		d.backAll = true // back = the pre-rewrite front: wholly stale
		d.cow = false
	}
	return d.m
}

// beforeWrite guards every mutation: panics on sealed views and flips
// the double-buffer when the current front is held by a sealed view.
func (d *Dense) beforeWrite() {
	if d.sealed {
		panic("simstore: write to a sealed dense view")
	}
	if d.cow {
		d.flip()
	}
}

// flip makes back the write target: allocate it on first need, bring it
// up to date (full copy when wholly stale, otherwise just the behind
// rows), and swap. The buffer being released to the sealed view(s) is
// exactly current, so the new behind set starts empty.
func (d *Dense) flip() {
	if d.back == nil {
		d.back = matrix.NewDense(d.m.Rows, d.m.Cols)
		d.backAll = true
	}
	if d.backAll {
		copy(d.back.Data, d.m.Data)
		d.backAll = false
	} else {
		for _, r := range d.behind {
			copy(d.back.Row(r), d.m.Row(r))
		}
	}
	d.resetBehind()
	d.m, d.back = d.back, d.m
	d.cow = false
}

func (d *Dense) resetBehind() {
	for _, r := range d.behind {
		d.behindMark[r] = false
	}
	d.behind = d.behind[:0]
}

// Seal returns an immutable view of the current buffer and marks it
// copy-on-write: the next mutation flips to the other buffer.
func (d *Dense) Seal() Store {
	if d.sealed {
		return d
	}
	if !d.cowSeen {
		d.cowSeen = true
		d.backAll = true // nothing synced into back yet
		d.behindMark = make([]bool, d.m.Rows)
	}
	d.cow = true
	return &Dense{m: d.m, sealed: true}
}

// MarkRowsDirty records rows written since the last flip, so the next
// flip re-syncs only those. No-op until the store is first sealed, or
// while the back buffer is wholly stale anyway.
func (d *Dense) MarkRowsDirty(rows []int) {
	if !d.cowSeen || d.backAll {
		return
	}
	for _, r := range rows {
		if !d.behindMark[r] {
			d.behindMark[r] = true
			d.behind = append(d.behind, r)
		}
	}
}

// MarkAllRowsDirty declares the back buffer wholly stale — the follow-up
// to a full rewrite through WritableMatrix or WritableMatrixDiscard
// (Recompute).
func (d *Dense) MarkAllRowsDirty() {
	if !d.cowSeen {
		return
	}
	d.resetBehind()
	d.backAll = true
}

// RecyclesBufferOf reports whether the sealed view shares the buffer
// the receiver's next flip would write into — the exact test an MVCC
// facade needs before recycling: only a straggling reader on THIS
// buffer forces an AbandonBack; stragglers on older, already-orphaned
// buffers are harmless.
func (d *Dense) RecyclesBufferOf(view *Dense) bool {
	return d.back != nil && view.m == d.back
}

// DoubleBuffered reports whether the second buffer is currently held
// (false before the first flip and after AbandonBack) — observability
// for tests and memory accounting.
func (d *Dense) DoubleBuffered() bool { return d.back != nil }

// AbandonBack detaches the second buffer without touching it, leaving it
// to the garbage collector once the sealed views referencing it drain.
// The MVCC facade calls this instead of blocking the writer when a
// long-running reader (an O(n²) Similarities copy, a snapshot) still
// pins the buffer the next flip would recycle; the following flip
// allocates a fresh one.
func (d *Dense) AbandonBack() {
	if d.back == nil {
		return
	}
	d.resetBehind()
	d.back = nil
	d.backAll = true
}

// N returns the node count.
func (d *Dense) N() int { return d.m.Rows }

// At returns s(i, j).
func (d *Dense) At(i, j int) float64 { return d.m.At(i, j) }

// Set writes entry (i, j) only — the dense layout stores both triangles.
func (d *Dense) Set(i, j int, v float64) {
	if d.sealed || d.cow {
		d.beforeWrite()
	}
	d.m.Set(i, j, v)
}

// Add accumulates v into entry (i, j).
func (d *Dense) Add(i, j int, v float64) {
	if d.sealed || d.cow {
		d.beforeWrite()
	}
	d.m.Add(i, j, v)
}

// AddSym accumulates v into (i, j) and (j, i); see matrix.Dense.AddSym.
func (d *Dense) AddSym(i, j int, v float64) {
	if d.sealed || d.cow {
		d.beforeWrite()
	}
	d.m.AddSym(i, j, v)
}

// BeginConcurrentWrites readies the store for Inc-uSR's row-parallel
// write-back (core.ConcurrentWriteStore): the copy-on-write flip a
// sealed view would force on the first mutation runs here, once,
// serially — after it d.cow is false, so the concurrent Add calls that
// follow go straight to matrix cells and goroutines writing disjoint
// cells never race. Returns true: the dense layout stores both
// triangles, so the parallel write-back lands each pair's mirror cell
// in a separate phase rather than via AddSym.
func (d *Dense) BeginConcurrentWrites() bool {
	d.beforeWrite()
	return true
}

// AlignConcurrentBoundary returns r unchanged: every dense row is an
// independent write target, so any row partition is conflict-free.
func (d *Dense) AlignConcurrentBoundary(r int) int { return r }

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

// Update applies one unit update through the store's workspace (see
// Store.Update) and records the rows it wrote, so the double-buffer's
// next flip re-syncs exactly those.
//
//simrank:noalloc
func (d *Dense) Update(g *graph.DiGraph, up graph.Update, p Params) (core.Stats, error) {
	st, err := d.update(d, g, up, p)
	if err != nil {
		return core.Stats{}, err
	}
	d.MarkRowsDirty(st.DirtyRows)
	return st, nil
}

// Recompute applies ups to g (see Store), then reruns the batch kernel,
// ping-ponging between the live buffer and the workspace's persistent
// scratch — a warm recompute at one worker allocates nothing. The
// discard variant flips the MVCC double-buffer without the syncing copy
// — the kernel overwrites every cell anyway (it starts from S₀ = (1−C)I)
// — and leaves the other buffer marked wholly stale, which
// MarkAllRowsDirty re-asserts.
func (d *Dense) Recompute(g *graph.DiGraph, ups []graph.Update, p Params) {
	ws := d.follow(g, ups)
	batch.MatrixFormInto(d.WritableMatrixDiscard(), ws.DenseScratch(), ws.TransitionCSR(), p.C, p.K, d.workers)
	d.MarkAllRowsDirty()
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
	// The workspace is sized for the old n: stop its pool, whose blocked
	// goroutines would otherwise leak; the grown store builds its own.
	d.Close()
	return &Dense{m: next, exact: exact{workers: d.workers}}
}

// MemBytes reports the 8n² serving payload (the MVCC double-buffer, when
// armed, is writer-side working memory and intentionally not counted).
func (d *Dense) MemBytes() int64 { return int64(len(d.m.Data)) * 8 }

// Backend names the implementation.
func (d *Dense) Backend() Backend { return BackendDense }
