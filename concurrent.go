package simrank

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/matrix"
	"repro/internal/simstore"
	"repro/internal/wal"
)

// ConcurrentEngine serves an Engine to many goroutines with epoch-based
// MVCC snapshot isolation: every read runs against an immutable,
// atomically-published view (sealed similarity store + sealed graph +
// epoch), so readers acquire no mutex and never wait on a writer — not
// on a streaming ApplyBatch, not on a Recompute, not even on another
// reader's O(n²) Similarities copy. The single writer (serialized by a
// plain mutex) mutates its private state through the store's
// copy-on-write machinery and publishes the next view with one atomic
// pointer store.
//
// Consistency: each view is one point in time — (n, m), every score,
// every top-k and the epoch all cohere within a call, and epochs are
// strictly monotone across publishes. A read that starts before a
// commit is published serves the pre-commit state; ?wait=1 writers (or
// anyone who observed Apply return) are guaranteed their next read sees
// the commit, because publish happens before the mutation call returns.
//
// Memory: dense and packed writers keep a second score buffer (n×n or
// the n(n+1)/2 triangle) and re-sync only the cells the previous commit
// wrote (warm Apply stays zero-allocation); approx writers copy-on-write
// per-node walk rows as repairs change them. Every publish seals the
// graph, and on approx the walk index, by copying ⌈n/64⌉ block
// pointers; a write then clones the 64-row block header and the row it
// changes, once per seal. A long-running reader
// pinning an old view costs at most its view's buffers — the writer
// detects the straggler and abandons the buffer to the GC instead of
// blocking or racing it.
type ConcurrentEngine struct {
	// writerMu serializes mutations (and only mutations — readers never
	// take it).
	writerMu sync.Mutex
	// eng is the writer-owned mutable state. Readers never touch it.
	eng *Engine
	// view is the published read state; readers do one atomic load.
	view atomic.Pointer[engineView]
	// old collects displaced views that may still have readers inside
	// them. A displaced view stays tracked until it is observed fully
	// drained (readers can never re-enter it: acquire only pins the
	// current view), because consecutive views can share one store
	// buffer — a view must not be forgotten while a straggling reader
	// could still be copying the buffer a future flip would recycle.
	// Writer-owned.
	old []*engineView
	// views counts publishes (the /stats views_published gauge).
	views atomic.Int64
	// wal, when non-nil (SetWAL), receives every committed mutation as
	// an epoch-tagged record before its view publishes. Writer-owned:
	// only touched under writerMu.
	wal *wal.WAL
	// walNotify, when non-nil (SetWALNotify), observes every record the
	// WAL accepted — the replication streaming hook: the server's hub
	// fans each record out to GET /wal subscribers. Called under
	// writerMu, after the durable append and before the view publishes,
	// so a follower can never see a record the leader could not replay.
	// Writer-owned.
	walNotify func(*wal.Record)
}

// NewConcurrentEngine builds a concurrency-safe engine; see NewEngine.
func NewConcurrentEngine(n int, edges []Edge, opts Options) (*ConcurrentEngine, error) {
	eng, err := NewEngine(n, edges, opts)
	if err != nil {
		return nil, err
	}
	return WrapEngine(eng), nil
}

// WrapEngine takes ownership of an existing engine (for example one
// restored via ReadSnapshot) and publishes its first read view. The
// caller must not use eng directly afterwards.
//
// This is one of the two approved publish points (with publish): the
// first view of a fresh wrap has no WAL ordering to respect, since
// every committed record is already in the engine being wrapped.
//
//simrank:publish
func WrapEngine(eng *Engine) *ConcurrentEngine {
	c := &ConcurrentEngine{eng: eng}
	c.view.Store(eng.sealView())
	c.views.Add(1)
	return c
}

// acquire pins the current view for the duration of one read. The
// increment-then-recheck dance closes the race against a writer
// recycling buffers: a reader that loses the race (the view moved
// between load and increment) backs off and retries, so it never
// dereferences data the writer might reclaim. Lock-free and wait-free
// in practice — the retry fires only across a concurrent publish.
func (c *ConcurrentEngine) acquire() *engineView {
	for {
		v := c.view.Load()
		v.readers.Add(1)
		if c.view.Load() == v {
			return v
		}
		v.readers.Add(-1)
	}
}

func release(v *engineView) { v.readers.Add(-1) }

// dropDrained forgets displaced views with no readers left — safe
// forever, since acquire only pins the current view. Views remaining in
// c.old afterwards are exactly the busy stragglers.
func (c *ConcurrentEngine) dropDrained() {
	kept := c.old[:0]
	for _, v := range c.old {
		if v.readers.Load() != 0 {
			kept = append(kept, v)
		}
	}
	// Nil out the forgotten tail so retained view structs (and the
	// sealed stores they pin) become collectible.
	for i := len(kept); i < len(c.old); i++ {
		c.old[i] = nil
	}
	c.old = kept
}

// prepareWrite runs before every store-writing mutation: if a displaced
// view that still has a reader inside it pins the exact buffer the
// store's next copy-on-write flip would recycle (consecutive views can
// share one buffer, so every tracked straggler is checked, not just the
// newest), abandon that buffer to the GC rather than block the writer
// or race the reader. Stragglers on other buffers are harmless — after
// one abandon their buffer is orphaned for good, so a long reader costs
// one extra allocation total, not one per subsequent write. Busy views
// stay tracked for the next round; they are only forgotten once
// observed drained.
func (c *ConcurrentEngine) prepareWrite() {
	c.dropDrained()
	for _, v := range c.old { // all still-tracked views are busy
		if c.eng.viewPinsRecycleTarget(v) {
			c.eng.abandonWriteBuffers()
			break
		}
	}
}

// publish seals the writer state into a fresh view and swaps it in,
// retiring the displaced one (and pruning already-drained retirees, so
// publish-only workloads like repeated AddNodes cannot grow the list
// without bound). Called with writerMu held, after the mutation
// committed.
//
//simrank:publish
func (c *ConcurrentEngine) publish() {
	prev := c.view.Load()
	c.view.Store(c.eng.sealView())
	c.dropDrained()
	c.old = append(c.old, prev)
	c.views.Add(1)
}

// Similarity returns s(a, b) from the current view, lock-free.
func (c *ConcurrentEngine) Similarity(a, b int) float64 {
	v := c.acquire()
	defer release(v)
	return v.similarity(a, b)
}

// SimilarityStderr returns s(a, b) and its standard error from the
// current view; see Engine.SimilarityStderr.
func (c *ConcurrentEngine) SimilarityStderr(a, b int) (score, stderr float64) {
	v := c.acquire()
	defer release(v)
	return v.similarityStderr(a, b)
}

// Backend returns the similarity-store backend.
func (c *ConcurrentEngine) Backend() Backend {
	return c.view.Load().s.Backend()
}

// StoreMemBytes reports the similarity store's resident bytes as of the
// current view's publish; see Engine.StoreMemBytes.
func (c *ConcurrentEngine) StoreMemBytes() int64 {
	return c.view.Load().storeBytes
}

// TopK returns the k most similar pairs from the current view.
func (c *ConcurrentEngine) TopK(k int) []Pair {
	v := c.acquire()
	defer release(v)
	return v.topK(k)
}

// TopKFor returns the nodes most similar to a from the current view.
func (c *ConcurrentEngine) TopKFor(a, k int) []Pair {
	v := c.acquire()
	defer release(v)
	return v.topKFor(a, k)
}

// N returns the node count of the current view.
func (c *ConcurrentEngine) N() int { return c.view.Load().n }

// M returns the edge count of the current view.
func (c *ConcurrentEngine) M() int { return c.view.Load().m }

// Size returns the node and edge counts of ONE view, so the pair is a
// consistent point-in-time reading (separate N() and M() calls can
// straddle a published commit).
func (c *ConcurrentEngine) Size() (n, m int) {
	v := c.view.Load()
	return v.n, v.m
}

// Epoch returns the current view's epoch: 1:1 with Engine.Epoch at the
// view's publish, strictly monotone across publishes.
func (c *ConcurrentEngine) Epoch() uint64 { return c.view.Load().epoch }

// ViewInfo is the observability surface of the MVCC read path, served
// as /stats epoch / view_age_ms / inflight_readers / views_published.
// All fields except Published and the cache counters describe ONE view,
// so a stats reading cannot mix epochs (reporting epoch E+1 alongside
// epoch-E node counts).
type ViewInfo struct {
	// Epoch is the published view's version.
	Epoch uint64
	// Age is how long ago that view was published — how stale the
	// oldest data a fresh read can observe is.
	Age time.Duration
	// Readers is the number of calls inside the view right now.
	Readers int64
	// Published counts views published over the engine's lifetime.
	Published int64
	// N and M are the view's node and edge counts.
	N, M int
	// Backend and StoreBytes describe the view's similarity store.
	Backend    Backend
	StoreBytes int64
	// Cache is the view's query-cache counter snapshot (zero when the
	// cache is disabled). The counters themselves are cache-lifetime
	// monotone, shared across views.
	Cache CacheStats
	// WalksRepaired and WalkResampleFraction are the approx backend's
	// incremental-repair gauges as of the view's seal (zero elsewhere):
	// cumulative walks whose suffix was resampled, and that work as a
	// fraction of what full per-update rebuilds would have resampled —
	// the affected-area win, ≈ the mean walk-visit probability of the
	// updated nodes.
	WalksRepaired        uint64
	WalkResampleFraction float64
}

// ViewInfo returns a coherent reading of the published view — size,
// epoch, age, store and cache gauges all from one atomic load.
func (c *ConcurrentEngine) ViewInfo() ViewInfo {
	v := c.view.Load()
	vi := ViewInfo{
		Epoch:      v.epoch,
		Age:        time.Since(v.published),
		Readers:    v.readers.Load(),
		Published:  c.views.Load(),
		N:          v.n,
		M:          v.m,
		Backend:    v.s.Backend(),
		StoreBytes: v.storeBytes,
		Cache:      v.cacheStats(),
	}
	if as, ok := v.s.(*simstore.ApproxView); ok {
		// The sealed view's counters are a point-in-time copy taken at
		// Seal, so these gauges are epoch-coherent with the rest.
		vi.WalksRepaired, _ = as.RepairStats()
		vi.WalkResampleFraction = as.ResampleFraction()
	}
	return vi
}

// HasEdge reports edge presence in the current view.
func (c *ConcurrentEngine) HasEdge(i, j int) bool {
	v := c.acquire()
	defer release(v)
	return v.hasEdge(i, j)
}

// Insert adds an edge under the writer mutex and publishes the new view.
func (c *ConcurrentEngine) Insert(i, j int) (UpdateStats, error) {
	return c.Apply(Update{Edge: Edge{From: i, To: j}, Insert: true})
}

// Delete removes an edge under the writer mutex and publishes the new
// view.
func (c *ConcurrentEngine) Delete(i, j int) (UpdateStats, error) {
	return c.Apply(Update{Edge: Edge{From: i, To: j}, Insert: false})
}

// Apply performs one unit update under the writer mutex; readers keep
// serving the previous view until the commit is published. The returned
// UpdateStats.DirtyRows is a copy detached under the mutex, before the
// publish — caller-owned, with no lifetime caveat.
func (c *ConcurrentEngine) Apply(up Update) (UpdateStats, error) {
	c.writerMu.Lock()
	defer c.writerMu.Unlock()
	c.prepareWrite()
	st, err := c.eng.Apply(up)
	if err != nil {
		// Failed updates mutate nothing (validated before any write), so
		// there is no new state to publish.
		return UpdateStats{}, err
	}
	st.DirtyRows = append([]int(nil), st.DirtyRows...)
	werr := c.logRecord(wal.KindUpdate, []Update{up}, 0)
	c.publish()
	return st, werr
}

// ApplyBatch folds a batch of updates under one writer-mutex
// acquisition and publishes once, after the whole batch committed —
// readers never observe a half-applied batch.
func (c *ConcurrentEngine) ApplyBatch(ups []Update) error {
	c.writerMu.Lock()
	defer c.writerMu.Unlock()
	c.prepareWrite()
	before := c.eng.Epoch()
	err := c.eng.ApplyBatch(ups)
	if c.eng.Epoch() != before {
		// One WAL record for the whole batch — replay re-enters ApplyBatch
		// with the same slice, so batch boundaries (and the
		// recompute crossover they decide) reproduce exactly.
		werr := c.logRecord(wal.KindBatch, ups, 0)
		// Publish whatever committed — on the validated path that is all
		// of it or none of it.
		c.publish()
		if err == nil {
			err = werr
		}
	}
	return err
}

// Similarities returns a point-in-time copy of the similarity matrix:
// the O(n²) materialization runs against the caller's pinned view, so
// a concurrent writer streams on unimpeded and later mutations are not
// reflected in the copy. Nil on the approx backend.
func (c *ConcurrentEngine) Similarities() *matrix.Dense {
	v := c.acquire()
	defer release(v)
	return v.similarities()
}

// Recompute rebuilds the similarities from scratch under the writer
// mutex and publishes the result as one new view. The returned error is
// a durability failure only (ErrDurability with a WAL installed): the
// rebuild itself cannot fail and its result is published regardless.
func (c *ConcurrentEngine) Recompute() error {
	c.writerMu.Lock()
	defer c.writerMu.Unlock()
	c.prepareWrite()
	c.eng.Recompute()
	werr := c.logRecord(wal.KindRecompute, nil, 0)
	c.publish()
	return werr
}

// AddNodes appends count isolated nodes under the writer mutex,
// returning the id of the first new one. The grown store is fresh, so
// no buffer recycling is involved and prior views stay intact.
func (c *ConcurrentEngine) AddNodes(count int) (int, error) {
	c.writerMu.Lock()
	defer c.writerMu.Unlock()
	first, err := c.eng.AddNodes(count)
	if err != nil {
		return 0, err
	}
	werr := c.logRecord(wal.KindAddNodes, nil, count)
	c.publish()
	return first, werr
}

// Options returns the effective options of the current view.
func (c *ConcurrentEngine) Options() Options { return c.view.Load().opts }

// Close does nothing, like Engine.Close: the facade holds no background
// goroutines. The facade remains usable afterwards.
func (c *ConcurrentEngine) Close() {}

// CacheStats returns the query cache's counters for the current view's
// cache; see Engine.CacheStats.
func (c *ConcurrentEngine) CacheStats() CacheStats { return c.view.Load().cacheStats() }

// WriteSnapshot serializes the current view: a consistent snapshot at
// that view's epoch, written without taking any engine lock — queries
// keep flowing AND the writer keeps committing while the bytes stream
// out (commits made after the pin are simply not in the file).
// ConcurrentEngine therefore satisfies SnapshotWriter and can be handed
// to WriteSnapshotFile directly.
func (c *ConcurrentEngine) WriteSnapshot(w io.Writer) error {
	v := c.acquire()
	defer release(v)
	return v.writeSnapshot(w)
}
