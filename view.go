package simrank

import (
	"io"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/simstore"
)

// readPath is the query path the mutable Engine and every sealed
// engineView share, written once over the store's read surface so the
// two can never drift: the similarity store, the query cache and the
// epoch cache entries are stamped with. The Engine's S is the writable
// simstore.Store; a view's is the immutable simstore.View its Seal
// returned.
type readPath[S simstore.View] struct {
	// s is the similarity store (see Options.Backend): a dense or packed
	// exact matrix, or the approx sampling tier. The Engine's keeps
	// itself current under every mutation (simstore.Store's write
	// methods).
	s S
	// cache is the dirty-row-invalidated top-k query cache, nil when
	// disabled (Options.TopKCacheRows ≤ 0). Entries are epoch-stamped
	// (see internal/cache): every mutation path bumps the epoch and
	// records what moved — Apply the update's dirty rows, Recompute and
	// AddNodes wholesale — so cached answers are provably bit-identical
	// at whatever epoch they are read.
	cache *cache.TopK
	// epoch counts committed mutations, monotonically: the version
	// number the MVCC facade stamps on published read views and the
	// cache stamps on entries. Bumped by Apply, Recompute and AddNodes:
	// the mutations the write-ahead log records.
	epoch uint64
}

// valid reports whether v names a node. Every query validates through
// this: queries never panic — an out-of-range node yields the zero
// result (score 0, empty top-k), matching a node the graph has never
// related to anything.
func (r *readPath[S]) valid(v int) bool { return v >= 0 && v < r.s.N() }

func (r *readPath[S]) similarity(a, b int) float64 {
	if !r.valid(a) || !r.valid(b) {
		return 0
	}
	return r.s.At(a, b)
}

func (r *readPath[S]) similarityStderr(a, b int) (score, stderr float64) {
	if !r.valid(a) || !r.valid(b) {
		return 0, 0
	}
	if smp, ok := any(r.s).(simstore.Sampler); ok {
		return smp.PairStderr(a, b)
	}
	return r.s.At(a, b), 0
}

func (r *readPath[S]) cacheStats() CacheStats {
	if r.cache == nil {
		return CacheStats{}
	}
	return r.cache.Stats()
}

// similarities materializes the matrix; on a sealed view the O(n²) copy
// runs entirely against frozen state, so the writer never waits on it.
func (r *readPath[S]) similarities() *matrix.Dense { return r.s.ToDense() }

func (r *readPath[S]) topK(k int) []Pair {
	if k <= 0 || r.s.Backend() == BackendApprox {
		return nil
	}
	if r.cache == nil {
		return metrics.TopKPairsUpper(r.s.N(), r.s.UpperRow, k)
	}
	if ps, ok := r.cache.GetGlobal(k, r.epoch); ok {
		return ps
	}
	ps := metrics.TopKPairsUpper(r.s.N(), r.s.UpperRow, k)
	r.cache.PutGlobal(k, ps, r.epoch)
	return metrics.ClonePairs(ps)
}

func (r *readPath[S]) topKFor(a, k int) []Pair {
	if !r.valid(a) || k <= 0 {
		return nil
	}
	// Sampling backends bypass the cache: a sampled list shorter than k
	// does not mean the row is exhausted (weak candidates can refine to
	// zero and drop out), which would violate the cache's
	// short-result-serves-any-larger-k rule.
	if smp, ok := any(r.s).(simstore.Sampler); ok {
		return smp.TopKRow(a, k)
	}
	// Exact backends scan a concurrency-safe row view: a zero-copy alias
	// on dense, one O(n) materialization on packed.
	if r.cache == nil {
		return metrics.TopKRow(r.s.ConcurrentRow(a), a, k)
	}
	if ps, ok := r.cache.GetRow(a, k, r.epoch); ok {
		return ps
	}
	ps := metrics.TopKRow(r.s.ConcurrentRow(a), a, k)
	r.cache.PutRow(a, k, ps, r.epoch)
	return metrics.ClonePairs(ps)
}

// engineView is one immutable, epoch-stamped read view of an engine —
// the unit the MVCC facade publishes through a single atomic pointer.
// Everything a query can touch is frozen at publish time: a sealed
// similarity store, a sealed graph snapshot, the (n, m) pair, the
// effective options and the epoch the shared query cache stamps entries
// with. Readers therefore compose any number of calls against one view
// and observe one consistent point in time, with no lock anywhere on
// the path (the query cache's internal O(1) micro-mutex is the single
// deliberate exception, and only when caching is enabled).
//
// readers counts calls currently inside this view. It exists for the
// writer — the exact stores' double buffer may only recycle a buffer
// whose views have drained — and doubles as the /stats in-flight gauge.
type engineView struct {
	readPath[simstore.View]
	g          *graph.Snapshot
	n, m       int
	opts       Options
	storeBytes int64
	published  time.Time

	readers atomic.Int64
}

// sealView freezes the engine's current state into a publishable view.
// Writer-side only; the graph seal and the approx store's seal each
// copy ⌈n/64⌉ block pointers — no similarity payload, out-list or walk
// row is copied.
func (e *Engine) sealView() *engineView {
	return &engineView{
		readPath:   readPath[simstore.View]{s: e.s.Seal(), cache: e.cache, epoch: e.epoch},
		g:          e.g.Seal(),
		n:          e.g.N(),
		m:          e.g.M(),
		opts:       e.opts,
		storeBytes: e.s.MemBytes(),
		published:  time.Now(),
	}
}

// recycler is the straggler surface of the double-buffered payload the
// dense and packed stores share (see simstore's Seal contract). Approx
// walk rows are copy-on-write — never rewritten in place — so approx
// has nothing to recycle or abandon.
type recycler interface {
	RecyclesBufferOf(view simstore.View) bool
	AbandonBack()
}

// abandonWriteBuffers tells the store to orphan the buffer a straggling
// reader still pins instead of recycling it — the facade's non-blocking
// alternative to waiting for an old view to drain.
func (e *Engine) abandonWriteBuffers() {
	if r, ok := e.s.(recycler); ok {
		r.AbandonBack()
	}
}

// viewPinsRecycleTarget reports whether v's sealed store shares the
// exact buffer the writer store's next flip would recycle. False on
// approx (nothing is rewritten in place) and for views of a previous
// store generation (AddNodes) or already-orphaned buffers — a straggler
// there is harmless and must not force another abandon.
func (e *Engine) viewPinsRecycleTarget(v *engineView) bool {
	r, ok := e.s.(recycler)
	return ok && r.RecyclesBufferOf(v.s)
}

func (v *engineView) hasEdge(i, j int) bool { return v.g.HasEdge(i, j) }

// writeSnapshot serializes the sealed graph and store: a point-in-time
// snapshot at this view's epoch, taken while the writer keeps
// committing.
func (v *engineView) writeSnapshot(w io.Writer) error {
	return writeSnapshotData(w, v.opts, v.epoch, v.n, v.g.Edges(), v.s)
}
