package simrank

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/simstore"
)

// Edge is a directed edge From → To (a citation, hyperlink, …).
type Edge = graph.Edge

// Update is a unit link update: one edge insertion or deletion.
type Update = graph.Update

// Pair is a scored node-pair returned by TopK.
type Pair = metrics.Pair

// UpdateStats reports the work one incremental update performed.
type UpdateStats = core.Stats

// Backend names a similarity-store implementation; see Options.Backend.
type Backend = simstore.Backend

// The available similarity-store backends (see internal/simstore):
// dense is the exact 8n²-byte baseline, packed the exact symmetric
// ≈4n²-byte store, approx the Monte-Carlo stored-walk tier — sub-n²
// memory, writable via incremental walk repair.
const (
	BackendDense  = simstore.BackendDense
	BackendPacked = simstore.BackendPacked
	BackendApprox = simstore.BackendApprox
)

// ParseBackend validates a backend name ("" selects dense) — the parser
// behind Options.Backend and the simrankd -backend flag.
func ParseBackend(s string) (Backend, error) { return simstore.ParseBackend(s) }

// Options configures an Engine. The zero value selects the paper's
// defaults: C = 0.6, K = 15. Every option is fixed at construction,
// except that a restored engine takes the two a snapshot does not
// persist, Workers and TopKCacheRows, from ConfigureRestored.
type Options struct {
	// C is the damping factor in (0, 1); 0 selects the default 0.6
	// (Section VI-A, following Jeh and Widom).
	C float64
	// K is the number of iterations; 0 selects the default 15, with which
	// the truncation error C^K is ≈ 5·10⁻⁴ (Section VI-A).
	K int
	// Workers bounds the goroutines of the exact backends' batch kernel:
	// NewEngine's initial scores, Recompute, and ApplyBatch's recompute
	// crossover. 0 selects GOMAXPROCS; 1 runs the kernel sequentially,
	// which additionally keeps a warm dense Recompute allocation-free.
	// Incremental updates (Inc-SR and approx walk repair) run on the
	// calling goroutine at every value (README "The Workers knob"), and
	// the approx backend has no batch kernel. The result is
	// bit-identical for every value: the kernel never splits the
	// accumulations into one cell across workers. Not persisted in
	// snapshots: a restored engine takes it from ConfigureRestored.
	Workers int
	// TopKCacheRows enables the read-path query cache: up to this many
	// per-row TopKFor results (plus one global TopK result) are retained,
	// LRU-evicted, and invalidated only for the rows each incremental
	// update actually wrote (core.Stats.DirtyRows) — wholesale on
	// Recompute and AddNodes. Cached answers are bit-identical to fresh
	// scans. ≤ 0 (the default) disables caching. Like Workers it is not
	// persisted in snapshots: a restored engine takes it from
	// ConfigureRestored.
	TopKCacheRows int
	// Backend selects the similarity store the engine keeps S in; the
	// empty value selects "dense", today's exact 8n²-byte matrix. "packed"
	// is the exact symmetric store at about half that; "approx" drops the
	// matrix entirely for a Monte-Carlo stored-walk tier (O(n·(W·L+d))
	// memory, per-query standard errors, updates absorbed by repairing
	// only the affected walk suffixes) — the only backend that loads
	// graphs whose n² is out of budget. The backend is baked into the
	// similarity state and persisted in snapshots.
	Backend Backend
	// ApproxWalks is the per-pair walk budget of the approx backend
	// (ignored elsewhere); 0 selects the default 128, the maximum is
	// simstore.MaxWalks (the same bound snapshots enforce on restore).
	// More walks shrink the standard error as 1/√walks; with stored
	// walks the budget prices memory (W·(K+1) positions per node) as
	// well as per-query reads.
	ApproxWalks int
	// ApproxSeed is the approx backend's derived-seed root (ignored
	// elsewhere); 0 selects the default 1. The whole walk set is a pure
	// function of (graph, seed, walks, K), so equal-seed engines over
	// equal graphs answer queries bit-identically — whether the graph
	// was reached by construction, incremental repair, WAL replay or
	// snapshot restore.
	ApproxSeed int64
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 0.6
	}
	if o.K == 0 {
		o.K = 15
	}
	if o.Backend == "" {
		o.Backend = BackendDense
	}
	if o.ApproxWalks == 0 {
		o.ApproxWalks = 128
	}
	if o.ApproxSeed == 0 {
		o.ApproxSeed = 1
	}
	return o
}

func (o Options) validate() error {
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("simrank: damping factor C=%v outside (0,1)", o.C)
	}
	if o.K < 1 {
		return fmt.Errorf("simrank: iteration count K=%d < 1", o.K)
	}
	if _, err := simstore.ParseBackend(string(o.Backend)); err != nil {
		return fmt.Errorf("simrank: %w", err)
	}
	if o.ApproxWalks < 0 || o.ApproxWalks > simstore.MaxWalks {
		return fmt.Errorf("simrank: approx walk budget %d outside [0, %d]", o.ApproxWalks, simstore.MaxWalks)
	}
	return nil
}

// params are the options the store's write path reads.
func (o Options) params() simstore.Params {
	return simstore.Params{C: o.C, K: o.K, Workers: o.Workers}
}

// Engine maintains a directed graph together with its (matrix-form)
// SimRank similarities, updating them incrementally as links change.
// It is not safe for concurrent mutation; wrap with a lock if shared.
type Engine struct {
	// readPath holds the similarity store, the query cache and the
	// epoch, and answers queries exactly as a sealed view does.
	readPath[simstore.Store]
	opts Options
	g    *graph.DiGraph
	// lastStats records the most recent incremental update's work.
	lastStats UpdateStats
}

// NewEngine builds an engine over n nodes with the given initial edges.
// Exact backends (dense, packed) compute the initial similarities with
// the batch algorithm (row-parallel across Options.Workers goroutines);
// the approx backend skips the O(Kd'n²) batch step entirely and only
// samples its O(n·(W·K+d)) stored-walk index — which is what lets it
// load graphs whose n×n matrix could never be materialized. An edge
// with an endpoint outside [0, n) is an error.
func NewEngine(n int, edges []Edge, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	g, err := buildGraph(n, edges)
	if err != nil {
		return nil, err
	}
	s, err := simstore.New(opts.Backend, g, opts.params(), opts.ApproxWalks, opts.ApproxSeed)
	if err != nil {
		return nil, fmt.Errorf("simrank: %w", err)
	}
	e := &Engine{readPath: readPath[simstore.Store]{s: s}, opts: opts, g: g}
	e.setTopKCacheRows(opts.TopKCacheRows)
	return e, nil
}

// buildGraph builds the n-node graph over caller edges, checking every
// endpoint first: graph.FromEdges panics on one out of range.
func buildGraph(n int, edges []Edge) (*graph.DiGraph, error) {
	if n < 0 {
		return nil, fmt.Errorf("simrank: negative node count %d", n)
	}
	for _, ed := range edges {
		if ed.From < 0 || ed.From >= n || ed.To < 0 || ed.To >= n {
			return nil, fmt.Errorf("simrank: edge %d→%d out of range [0,%d)", ed.From, ed.To, n)
		}
	}
	return graph.FromEdges(n, edges), nil
}

// Epoch returns the engine's monotone mutation counter: 0 at
// construction, +1 per committed Apply (an ApplyBatch counts each
// update it folds), Recompute or AddNodes — exactly the mutations the
// write-ahead log records. The MVCC facade stamps each
// published read view with it, the write-ahead log tags each record
// with it, and version-3 snapshots persist it — a restored engine
// resumes at the serialized epoch (0 for pre-WAL v1/v2 files), so WAL
// replay knows where to start and post-restore appends keep advancing
// the same chain.
func (e *Engine) Epoch() uint64 { return e.epoch }

// Backend returns the similarity-store backend the engine runs on.
func (e *Engine) Backend() Backend { return e.s.Backend() }

// StoreMemBytes reports the similarity store's resident size in bytes —
// 8n² dense, ≈4n² packed, O(n·W·K) approx. Served as /stats
// "store_bytes".
func (e *Engine) StoreMemBytes() int64 { return e.s.MemBytes() }

// N returns the number of nodes.
func (e *Engine) N() int { return e.g.N() }

// M returns the number of edges.
func (e *Engine) M() int { return e.g.M() }

// HasEdge reports whether edge (i, j) is present; out-of-range nodes
// have no edges, so the answer is false rather than a panic.
func (e *Engine) HasEdge(i, j int) bool {
	if !e.valid(i) || !e.valid(j) {
		return false
	}
	return e.g.HasEdge(i, j)
}

// Similarity returns the current SimRank score s(a, b), or 0 when either
// node is out of range. On the approx backend this is a sampling
// estimate (use SimilarityStderr for its confidence).
func (e *Engine) Similarity(a, b int) float64 { return e.similarity(a, b) }

// SimilarityStderr returns s(a, b) together with the standard error of
// the answer: 0 on the exact backends, the sampling stderr on approx
// (|true − est| ≤ 3·stderr with ≈99% confidence). Out-of-range nodes
// yield (0, 0).
func (e *Engine) SimilarityStderr(a, b int) (score, stderr float64) {
	return e.similarityStderr(a, b)
}

// Similarities returns the full similarity matrix. The returned matrix is
// a snapshot copy; mutating it does not affect the engine. The approx
// backend returns nil — materializing n² estimates is the workload that
// backend exists to refuse.
func (e *Engine) Similarities() *matrix.Dense { return e.similarities() }

// TopK returns the k most similar distinct node-pairs (nil when k ≤ 0).
// With the query cache enabled, a repeat of a warm k is served without
// rescanning the n²/2 pairs; the answer is bit-identical either way.
// On the approx backend TopK returns nil: a global scan over all n²/2
// pairs is exactly the work the sampling tier exists to avoid (use
// TopKFor per node instead).
func (e *Engine) TopK(k int) []Pair { return e.topK(k) }

// TopKFor returns up to k nodes most similar to node a, highest first
// (ties by node id ascending), or nil when a is out of range or k ≤ 0.
// A bounded min-heap keeps the row scan at O(n·log k) instead of sorting
// every scored neighbor; with the query cache enabled a warm row skips
// the scan entirely until an update dirties it.
func (e *Engine) TopKFor(a, k int) []Pair { return e.topKFor(a, k) }

// Insert adds edge (i, j) and incrementally updates all similarities.
func (e *Engine) Insert(i, j int) (UpdateStats, error) {
	return e.Apply(Update{Edge: Edge{From: i, To: j}, Insert: true})
}

// Delete removes edge (i, j) and incrementally updates all similarities.
func (e *Engine) Delete(i, j int) (UpdateStats, error) {
	return e.Apply(Update{Edge: Edge{From: i, To: j}, Insert: false})
}

// Apply performs one unit update incrementally (Inc-SR). On a warm
// engine this is the zero-allocation hot path: the store's persistent
// workspace reads Q and Qᵀ from the graph's sorted adjacency and
// supplies every scratch buffer the algorithm needs. A rejected update
// returns *core.ErrBadUpdate — with the same Reason on every backend —
// and leaves the engine untouched.
//
// The returned UpdateStats.DirtyRows aliases workspace scratch: it is
// valid until this engine's next update (copy it to retain) — see the
// lifetime contract on core.Stats.DirtyRows. ConcurrentEngine's
// wrappers return the detached copy snapshotted at view-publish time
// instead.
//
// On the approx backend the update instead repairs the stored-walk
// index: DirtyRows names the nodes whose walk sets changed, under the
// same lifetime contract (it aliases the index's repair scratch), and
// the only stats populated are DirtyRows itself.
//
//simrank:noalloc
func (e *Engine) Apply(up Update) (UpdateStats, error) {
	// The store applies up to e.g, the graph it was built over.
	st, err := e.s.Update(e.g, up, e.opts.params())
	if err != nil {
		return UpdateStats{}, err
	}
	e.epoch++
	if e.cache != nil {
		// Surgical invalidation: only the rows this update wrote lose
		// their cached top-k; everything else keeps serving. The epoch
		// stamp fences off concurrent readers of older views without
		// excluding them.
		e.cache.InvalidateRows(st.DirtyRows, e.epoch)
	}
	e.lastStats = st
	return st, nil
}

// ApplyBatch folds a batch of unit updates, advancing the epoch by one
// per update. When the batch is large relative to the edge count (see
// recomputes), it applies the graph changes and recomputes from scratch
// instead, which Exp-1 shows is the faster regime, and advances the
// epoch by one. Every update must be applicable in sequence; the whole
// batch is validated against a simulated application before anything is
// mutated, so a failed batch is a no-op — the graph and similarities are
// exactly as before the call.
func (e *Engine) ApplyBatch(ups []Update) error {
	if len(ups) == 0 {
		return nil
	}
	if err := e.validateBatch(ups); err != nil {
		return err
	}
	if e.recomputes(len(ups)) {
		e.s.Recompute(e.g, ups, e.opts.params())
		e.rewrote()
		return nil
	}
	for _, up := range ups {
		if _, err := e.Apply(up); err != nil {
			return err
		}
	}
	return nil
}

// recomputes reports whether a batch of k updates takes ApplyBatch's
// recompute crossover: k ≥ 0.15·max(|E|, 1), the regime where the
// paper's Exp-1 finds recomputing from scratch faster than folding unit
// updates. It depends on the graph alone, so WAL replay and replicas
// take the same path the logged commit took.
func (e *Engine) recomputes(k int) bool {
	return float64(k) >= 0.15*float64(max(e.g.M(), 1))
}

// validateBatch checks that every update in ups applies cleanly when the
// batch is folded in order, without touching the engine: an overlay map
// simulates the pending edge insertions/deletions over the live graph.
// The single-update case — the steady state of a low-traffic coalescing
// pipeline, where every drain cycle holds one update — skips the overlay
// so it stays allocation-free.
//
//simrank:noalloc
func (e *Engine) validateBatch(ups []Update) error {
	var overlay map[Edge]bool
	if len(ups) > 1 {
		overlay = make(map[Edge]bool, len(ups)) //simrank:allocok multi-update batches only; the single-update steady state skips the overlay
	}
	for _, up := range ups {
		if err := core.CheckUpdate(e.g, up, overlay); err != nil {
			return err
		}
		if overlay != nil {
			overlay[up.Edge] = up.Insert //simrank:allocok same gated overlay; nil on the single-update path
		}
	}
	return nil
}

// AddNodes appends count isolated nodes and returns the id of the first
// new one. The similarity matrix is extended exactly, not recomputed: an
// isolated node v has s(v, v) = 1−C and s(v, ·) = 0 in the matrix form,
// so the padded matrix is the new graph's exact fixed point.
func (e *Engine) AddNodes(count int) (first int, err error) {
	if count < 0 {
		return 0, fmt.Errorf("simrank: negative node count %d", count)
	}
	first = e.g.AddNodes(count)
	e.s = e.s.AddNodes(count, 1-e.opts.C)
	// The padded rows are value-identical, but a flush is the simple
	// invariant every resize shares.
	e.rewrote()
	if e.cache != nil {
		e.cache.ReserveRows(e.g.N())
	}
	return first, nil
}

// Recompute rebuilds the similarities from scratch with the batch
// algorithm (the engine's safety valve; never needed for correctness).
// The exact backends run the row-parallel kernel across Options.Workers
// goroutines: dense writes into its matrix with a persistent kernel
// scratch (T and its support bitmaps), so a warm sequential recompute
// (Workers = 1) allocates nothing; packed iterates on two transient
// dense buffers and their bitmaps, transiently costing 16.25n² bytes,
// and compresses the result back. The approx backend
// resamples its whole walk set from the current graph — by the derived
// -seed invariant the outcome is identical to the incremental repairs
// that could have reached the same topology, so here too Recompute is
// about cost (one O(n·W·L) pass beating many per-edge repairs), never
// correctness.
func (e *Engine) Recompute() {
	e.s.Recompute(e.g, nil, e.opts.params())
	e.rewrote()
}

// rewrote commits a mutation that may have moved every score: it bumps
// the epoch and flushes the query cache wholesale.
func (e *Engine) rewrote() {
	e.epoch++
	if e.cache != nil {
		e.cache.Flush(e.epoch)
	}
}

// LastStats returns the statistics of the most recent incremental
// update. Its DirtyRows carries Apply's aliasing caveat: stale (and
// possibly rewritten) once a newer update has run.
func (e *Engine) LastStats() UpdateStats { return e.lastStats }

// SingleSourceScores computes s(query, ·) for a graph directly, without
// building an engine or the n×n similarity matrix — O(K²·m) time, O(n)
// memory. Useful for one-off queries on graphs too large to score fully.
// An edge with an endpoint outside [0, n) is an error.
func SingleSourceScores(n int, edges []Edge, query int, opts Options) ([]float64, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	g, err := buildGraph(n, edges)
	if err != nil {
		return nil, err
	}
	return batch.SingleSource(g, opts.C, opts.K, query)
}

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// Close does nothing: the engine holds no goroutines or other
// background resources between calls. It stays part of the API so
// callers that close engines keep compiling, and it is safe to call any
// number of times; the engine remains usable afterwards.
func (e *Engine) Close() {}

// CacheStats is the query cache's counter snapshot; see cache.Stats.
type CacheStats = cache.Stats

// CacheStats returns the query cache's counters (all zero when the cache
// is disabled). RowMisses counts actual similarity-row scans, so a warm
// cache is doing zero scan work exactly while RowMisses holds still.
func (e *Engine) CacheStats() CacheStats { return e.cacheStats() }

// ConfigureRestored sets the options a snapshot does not persist — the
// batch kernel's parallelism (workers ≤ 0 keeps the restored default)
// and the query cache (a fresh, cold one; rows ≤ 0 disables it) —
// without advancing the epoch. Call it after ReadSnapshot, before the
// engine takes a write or is wrapped in a ConcurrentEngine: options are
// otherwise fixed at construction. Read replicas in particular rely on
// the unchanged epoch: a replica's epoch sequence is owned by the
// leader's record stream, and an epoch minted locally at boot would
// collide with — and silently swallow — the leader's next record (see
// cmd/simrankd).
func (e *Engine) ConfigureRestored(workers, topkRows int) {
	if workers > 0 {
		e.opts.Workers = workers
	}
	e.setTopKCacheRows(topkRows)
}

// setTopKCacheRows builds the query cache for rows (nil when rows ≤ 0):
// the constructor's and ConfigureRestored's shared step.
func (e *Engine) setTopKCacheRows(rows int) {
	e.opts.TopKCacheRows = rows
	if rows > 0 {
		e.cache = cache.New(rows)
		// Pre-size the dirty ledger so warm updates never grow it
		// (preserving Apply's zero-allocation guarantee).
		e.cache.ReserveRows(e.g.N())
	} else {
		e.cache = nil
	}
}
