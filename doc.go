// Package simrank is a from-scratch Go implementation of fast incremental
// SimRank on link-evolving graphs (Yu, Lin, Zhang — ICDE 2014), together
// with the batch algorithms and the SVD-based incremental baseline the
// paper evaluates against.
//
// SimRank scores node-pair similarity from link structure: "two nodes are
// similar if they are referenced by similar nodes". Computing it from
// scratch costs O(Kd'n²); this package instead maintains the scores under
// edge insertions and deletions in O(K(nd + |AFF|)) per update — exact,
// with pruning of the unaffected node-pairs.
//
// # Quick start
//
//	eng, err := simrank.NewEngine(4, []simrank.Edge{
//		{From: 0, To: 2}, {From: 1, To: 2}, {From: 2, To: 3},
//	}, simrank.Options{})
//	if err != nil { ... }
//	_ = eng.Similarity(0, 1)        // batch score
//	_, _ = eng.Insert(3, 2)         // incremental update (Inc-SR)
//	top := eng.TopK(10)             // most similar pairs after the update
//
// The update path implements Algorithm 2 (Inc-SR) of the paper, which
// is exact: after any update sequence the scores match a batch
// recomputation to within the iterative truncation error C^{K+1}.
// Algorithm 1 (Inc-uSR), which touches all n² pairs, lives on in
// internal/core as the reference Inc-SR is tested against and as the
// experiments' baseline; the engine does not run it.
//
// # Compute core
//
// Each exact similarity store (dense, packed) owns a persistent compute
// workspace (internal/core), built over the graph on its first write;
// the approx store never builds one. The engine hands every update and
// recompute to its store, with one code path for all backends, and the
// store applies the update to the graph it was built over. Q and Qᵀ are
// read in place from the graph's sorted in- and out-lists, the only copy
// of the adjacency, so an edge change is the graph's own sorted insert
// or delete and never an O(m) rebuild; every scratch buffer of the
// update algorithms is pooled and reused, so a warm Engine.Apply
// performs zero heap allocations. Batch computation (NewEngine, Recompute, ApplyBatch's
// crossover) runs one row-partitioned sparse kernel (internal/batch)
// over S and T = Q·S, visiting only the cells its per-row support
// bitmaps flag as possibly non-zero, and ends by mirroring its upper
// triangle onto the lower one. S is therefore
// exactly symmetric on both exact stores (updates write both mirror
// cells, and restore mirrors an older dense snapshot), so Inc-SR reads
// rows i and j wherever the paper reads the columns [S]·,i and [S]·,j,
// and dense and packed agree bit for bit. Options.Workers
// sets that kernel's parallelism and nothing else: every incremental
// update, on every backend, runs on the calling goroutine, as the
// paper's sequential Inc-SR does. The kernel never splits the
// accumulations into one cell across workers, so every worker count
// produces bit-identical results — serving answers, snapshots and WAL
// replay are byte-stable whatever the fan-out. See README.md ("The
// Workers knob") for why updates are serial, and the benchmark suite
// (go test -bench=. -benchmem).
//
// # Concurrency model
//
// ConcurrentEngine serves reads with epoch-based MVCC snapshot
// isolation: every committed mutation seals the engine's state into an
// immutable read view (sealed store + sealed graph + epoch) published
// through one atomic pointer, so readers acquire no lock and never wait
// on a writer — not on a streaming ApplyBatch, a Recompute, or another
// reader's O(n²) Similarities copy — and each view is one consistent
// point in time (Size returns a coherent (n, m); WriteSnapshot
// serializes the pinned view while the writer keeps committing).
// Sealing copies no similarity payload: the dense and packed backends
// double-buffer and re-sync only the cells each commit wrote (warm Apply
// stays zero-allocation), and approx copy-on-writes per-node walk rows,
// so a pinned view keeps serving its frozen walk set while the writer
// repairs past it. The walk rows and the graph's out-lists sit in
// 64-row blocks (internal/cow), so each of their seals copies ⌈n/64⌉
// block pointers. The plain Engine never seals and pays nothing.
// See the README's "Concurrency model" section for costs and the
// straggling-reader story.
//
// # Serving
//
// internal/server (run as cmd/simrankd) exposes the engine over
// HTTP/JSON: queries are answered lock-free off the published MVCC
// views, and POST /updates feeds an asynchronous coalescing pipeline
// that folds each burst of write requests through one ApplyBatch per
// drain cycle — one writer-mutex acquisition and one view publish for
// the whole burst, with opt-in synchronous completion (?wait=1) and an
// atomic snapshot/restore lifecycle (WriteSnapshotFile, the -snapshot
// and -restore flags). The listener can bind before the engine boots:
// /healthz is pure liveness while /readyz holds traffic until the first
// view publishes, and /stats reports epoch, view_age_ms and
// inflight_readers. See the README's "Serving" section for the endpoint
// table and semantics.
//
// # Durability
//
// Snapshots cover graceful shutdowns; the write-ahead log (internal/wal,
// simrankd's -wal-dir flag) covers crashes. Every committed mutation is
// appended — epoch-tagged, CRC-framed — before its view publishes, so
// boot equals restore-newest-snapshot plus ReplayWAL of the log tail,
// and a kill -9 loses nothing acknowledged (under -wal-sync=always; see
// the README's "Durability & crash recovery" section for the fsync
// policies, group commit, and the recovery semantics: torn tails are
// truncated, mid-log corruption fails the boot loudly, and each record
// must land replay on its own epoch, so the record after a missing one
// is refused). Successful snapshots truncate the covered segments. If
// an append fails the mutation stays committed and visible and the
// writer receives ErrDurability, as does every later writer: a log
// whose disk call failed stays failed, so it never holds a gap.
//
// # Replication
//
// Exact replay generalizes from crash recovery to read replicas: a
// leader running with a WAL serves it over GET /wal?from=<epoch>
// (backlog, then live tail, then heartbeats), and a follower
// (internal/replica, simrankd's -follow flag) applies each record
// through ApplyReplicated — the same path ReplayWAL uses — publishing
// one MVCC view per applied epoch and re-logging to its own WAL so a
// restart resumes from local disk. At the same epoch, leader and
// follower answers are bit-identical on every backend; followers
// reject writes with 409 naming the leader, gate /readyz on a lag
// bound, and fail loudly (rather than fork silently) when the stream
// can no longer extend their state — a record whose epoch is not the
// follower's next included. Epochs double as the replication
// position, so every option is fixed at construction and only logged
// mutations advance the epoch; a restored engine sets its unpersisted
// options with Engine.ConfigureRestored, which leaves the epoch alone.
// See the README's "Replication" section.
//
// # Similarity-store backends
//
// The n×n similarity matrix is the system's memory wall, so the engine
// keeps it behind a pluggable store (internal/simstore) selected with
// Options.Backend: "dense" (the exact 8n²-byte baseline), "packed"
// (exact symmetric upper-triangular storage at ≈4n² — the same
// incremental machinery writing through a symmetric AddSym, warm Apply
// still allocation-free, scores bit-identical to dense) and "approx"
// (no matrix at all: a writable Monte-Carlo tier over a stored-walk
// index in O(n·W·L) memory beside the graph, whose in-lists the walks
// draw from in place, answering queries deterministically
// with a reported standard error — the only backend that loads
// 100k+-node graphs). Approx absorbs edge
// updates by incremental walk repair: every walk position is a pure
// function of (graph, seed), so an update at node j resamples only the
// walk suffixes that pass through j — the affected fraction is j's
// walk-visit probability — at a cost of O(affected · remaining-steps)
// against the full O(n·W·L) resample, and lands bit-identically on what
// a fresh rebuild over the new graph would hold. Recompute remains the
// full resample for when the graph has churned wholesale. Snapshots
// carry a versioned header per backend and round-trip byte-identically;
// approx snapshots store only (budget, seed, repair generation) and
// rebuild the walks on restore. See the README's "Backends" section for
// the memory formulas and tier-selection guidance.
//
// # Query caching
//
// The read path scales through a dirty-row top-k cache
// (Options.TopKCacheRows, internal/cache, simrankd's -topk-cache flag):
// per-row TopKFor results and the global TopK are retained LRU-bounded
// and invalidated per update using exactly the affected rows the
// incremental core reports (UpdateStats.DirtyRows — the pruning
// machinery's "affected area", repurposed as an invalidation signal).
// Entries are epoch-stamped, so one cache serves every MVCC view
// concurrently: an entry answers a reader only when the row provably
// did not change between the entry's epoch and the reader's.
// Cached answers are bit-identical to fresh scans; CacheStats exposes
// hit/miss/invalidation counters, also served in GET /stats. Queries
// themselves never panic: out-of-range nodes and non-positive k yield
// zero results. See the README's "Query caching" subsection.
//
// # Static analysis
//
// Sealed views are immutable by their types: every Seal returns a
// read-only type (simstore.DenseView, PackedView or ApproxView,
// montecarlo.View, graph.Snapshot) that has no write method, so a write
// to a view does not compile. The other core invariants —
// WAL-append-before-publish ordering, zero-allocation hot paths,
// determinism, dirty-row reporting, durability error handling — are
// proven at compile time by the repo's own suite of five analyzers:
// `go run ./cmd/simranklint ./...` (internal/analysis). Contracts and
// audited exceptions are annotated in source with //simrank:*
// directives; see the README's "Static analysis & invariants" section.
package simrank
