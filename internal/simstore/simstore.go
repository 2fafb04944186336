// Package simstore provides the pluggable similarity-store backends the
// engine keeps its SimRank matrix S in. The store is the memory wall of
// the whole system — S is Θ(n²) output — so the backend choice decides
// which graphs are servable at all:
//
//   - dense:  the classic row-major n×n float64 matrix (8n² bytes), the
//     bit-exact baseline every other backend is measured against;
//   - packed: symmetric upper-triangular storage (8·n(n+1)/2 ≈ 4n²
//     bytes) — SimRank's S is symmetric, so the dense layout stores every
//     off-diagonal score twice; packed halves that while keeping the
//     exact incremental-update machinery (every write flows through the
//     symmetric AddSym, landing on one backing cell);
//   - approx: no materialized S at all — a Monte-Carlo sampling tier
//     over a stored-walk index (internal/montecarlo), O(n·(W·L + d))
//     memory, answering queries by reading the meeting points of stored
//     coalescing reverse walks with a reported standard error. Writable
//     through the graph: an edge update repairs exactly the invalidated
//     walk suffixes (ApplyUpdate), bit-identical to a fresh rebuild at
//     the same seed.
//
// The exact stores (dense, packed) satisfy internal/core.SimStore, so
// Inc-SR/Inc-uSR run unmodified against either; the approx store has no
// matrix cells for those exact write-backs (Set/Add/AddSym panic), so
// the engine routes its writes through ApplyUpdate instead.
package simstore

import (
	"errors"
	"fmt"

	"repro/internal/matrix"
	"repro/internal/metrics"
)

// Backend names a similarity-store implementation.
type Backend string

const (
	// BackendDense is the n×n row-major float64 store (8n² bytes).
	BackendDense Backend = "dense"
	// BackendPacked is the symmetric upper-triangular store (≈4n² bytes).
	BackendPacked Backend = "packed"
	// BackendApprox is the Monte-Carlo stored-walk sampling tier
	// (O(n·(W·L+d)) bytes, writable via incremental walk repair).
	BackendApprox Backend = "approx"
)

// ParseBackend validates a backend name ("" selects dense), the single
// parser behind Options.Backend and the simrankd -backend flag.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendDense:
		return BackendDense, nil
	case BackendPacked:
		return BackendPacked, nil
	case BackendApprox:
		return BackendApprox, nil
	}
	return "", fmt.Errorf("simstore: unknown backend %q (want dense, packed or approx)", s)
}

// Store is a similarity matrix S behind an interface, so the engine, the
// batch kernel, snapshots and the HTTP server are all backend-agnostic.
// Every store is square (n×n) and logically symmetric.
//
// Concurrency: At, ConcurrentRow and UpperRow are safe for concurrent
// readers. Row and ColInto may use store-internal scratch — they belong
// to the single-writer update path, and a returned row view is valid
// only until the next Row/ColInto call or mutation. All mutations
// require exclusive access.
//
// # The Seal/Writable copy-on-write contract
//
// Seal returns an immutable point-in-time view of the store: the MVCC
// read path publishes one per epoch, and any number of readers may query
// it concurrently while the single writer keeps mutating the original.
// Sealing is cheap — it shares the backing payload — and the writer
// copies only what it is about to change:
//
//   - dense double-buffers: the first write after a Seal flips to the
//     second n×n buffer, re-syncing just the rows that went stale since
//     that buffer last held the front (the dirty sets reported through
//     MarkRowsDirty), so a warm writer re-uses two fixed buffers and
//     stays allocation-free;
//   - packed copy-on-writes its triangle in row-aligned chunks: sealed
//     views share every chunk, and the writer duplicates a chunk the
//     first time it lands a write in it after a Seal;
//   - approx copy-on-writes per node: a sealed view shares every node's
//     stored walks, and the writer clones one node's walk row the first
//     time a repair touches it after a Seal.
//
// Writers that mutate a sealable store outside the incremental core must
// report every row of S they wrote via MarkRowsDirty before the next
// Seal — the dense double-buffer syncs exactly those rows on its next
// flip. The engine threads core.Stats.DirtyRows through after each
// update; wholesale rewrites (recompute) use the backend's own
// mark-everything hook. A store that has never been sealed pays nothing
// for any of this: MarkRowsDirty is a no-op and the write paths skip the
// copy-on-write checks' slow half entirely.
//
// # The concurrent write-back contract
//
// The exact stores additionally implement core.ConcurrentWriteStore,
// which Inc-uSR's row-parallel write-back uses to mutate disjoint cells
// from several goroutines at once (Inc-SR writes back serially, through
// plain AddSym):
//
//   - BeginConcurrentWrites runs once, serially, before the fan-out and
//     performs any internal transition that must not race — the dense
//     store runs its pending double-buffer flip here, so the concurrent
//     Add calls that follow are plain cell writes; the packed store has
//     nothing to flip (chunk COW is per-write) but relies on alignment.
//     Its return value reports whether the layout stores both triangles
//     (dense: true), in which case the caller writes each pair's
//     canonical upper cell first and lands the mirrors in a separate
//     phase, so no cell is ever touched by two goroutines.
//   - AlignConcurrentBoundary rounds a row-partition boundary up to the
//     store's concurrent-write granularity: dense returns it unchanged
//     (any row split works); packed rounds up to the next chunk-start
//     row, because a write may duplicate (COW) its whole chunk and two
//     goroutines must never share one.
//
// The approx store is not a ConcurrentWriteStore — its writes flow
// through ApplyUpdate, which parallelizes internally across affected
// walks (SetWorkers) — and any store without the interface simply gets
// the one-partition write-back.
type Store interface {
	// N returns the node count.
	N() int
	// At returns s(i, j). On the approx backend this is a sampling
	// estimate — a deterministic pure read of the stored walks.
	At(i, j int) float64
	// Set writes entry (i, j); symmetric layouts alias the mirror entry.
	Set(i, j int, v float64)
	// Add accumulates v into entry (i, j).
	Add(i, j int, v float64)
	// AddSym applies v·(e_i·e_jᵀ + e_j·e_iᵀ): both mirror entries
	// accumulate v (the diagonal twice) — the one mutation shape of the
	// incremental write-backs; see core.SimStore.
	AddSym(i, j int, v float64)
	// Row returns row i as a view that may alias internal scratch (see
	// the concurrency note above).
	Row(i int) []float64
	// ConcurrentRow returns row i in a form safe under concurrent
	// readers: an immutable alias (dense) or a fresh copy (packed,
	// approx).
	ConcurrentRow(i int) []float64
	// UpperRow returns the entries (a, a), (a, a+1), …, (a, n−1) as a
	// race-free alias of backing storage — the global top-k scan shape.
	// Exact stores only; the approx store panics.
	UpperRow(a int) []float64
	// ColInto copies column j into dst (single-writer path; symmetric
	// layouts serve it from row storage).
	ColInto(dst []float64, j int)
	// Clone returns an independent deep copy.
	Clone() Store
	// ToDense materializes the full matrix, or nil when that is the
	// point of the backend not to (approx).
	ToDense() *matrix.Dense
	// AddNodes returns a store over n+count nodes: old scores preserved,
	// new rows zero except s(v, v) = diag (the approx backend grows its
	// walk index in place — diag is implicit, s(v,v) = 1 by definition —
	// and returns the receiver).
	AddNodes(count int, diag float64) Store
	// MemBytes reports the store's resident size in bytes — the
	// /stats "store_bytes" figure. The serving payload only: the dense
	// backend's transient MVCC double-buffer is not counted (it is the
	// writer's cost, not the view's).
	MemBytes() int64
	// Backend names the implementation.
	Backend() Backend
	// Seal returns an immutable point-in-time view of the store, safe
	// for any number of concurrent readers; see the package contract
	// above. Sealing an already-sealed view returns the receiver.
	//
	// Dense caveat: the double-buffer recycles the buffer of the
	// second-newest view, so before the first write after a Seal the
	// caller must either know that every older view has no readers left
	// or call (*Dense).AbandonBack to orphan the buffer to the GC.
	// Packed and approx views are intrinsically safe at any age.
	Seal() Store
	// Writable reports whether the receiver accepts mutation: false for
	// sealed views.
	Writable() bool
	// MarkRowsDirty reports rows of S written since the last Seal (or
	// the last MarkRowsDirty call) — the dense double-buffer's re-sync
	// set. No-op on backends that track sharing themselves (packed,
	// approx), and on stores never sealed.
	MarkRowsDirty(rows []int)
}

// Sampler is the optional query surface of sampling backends: top-k by
// estimation with refinement, and per-pair standard errors. The engine
// routes queries through it when the store provides it.
type Sampler interface {
	// TopKRow estimates the k nodes most similar to a, highest first.
	TopKRow(a, k int) []metrics.Pair
	// PairStderr estimates s(a, b) together with the standard error of
	// the estimate.
	PairStderr(a, b int) (est, stderr float64)
}

// New constructs an empty (all-zero) exact store of the given backend.
// The approx backend is graph-backed and has its own constructor
// (NewApprox); requesting it here is an error.
func New(b Backend, n int) (Store, error) {
	switch b {
	case "", BackendDense:
		return NewDense(n), nil
	case BackendPacked:
		return NewPacked(n), nil
	case BackendApprox:
		return nil, errors.New("simstore: approx stores are built from a graph; use NewApprox")
	}
	return nil, fmt.Errorf("simstore: unknown backend %q", b)
}
