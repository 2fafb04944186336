package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	simrank "repro"
)

// UpdateJSON is the wire form of one link update. Op is "insert" or
// "delete"; an empty Op means insert, so the minimal body
// {"from":0,"to":1} inserts an edge.
type UpdateJSON struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Op   string `json:"op,omitempty"`
}

// rawUpdate is the decode-side twin of UpdateJSON: pointer fields make
// missing from/to detectable, so bodies like `null` or `{}` are rejected
// instead of silently becoming an "insert edge 0→0".
type rawUpdate struct {
	From *int   `json:"from"`
	To   *int   `json:"to"`
	Op   string `json:"op"`
}

func (u rawUpdate) toUpdate() (simrank.Update, error) {
	var up simrank.Update
	if u.From == nil || u.To == nil {
		return up, fmt.Errorf(`"from" and "to" are required`)
	}
	up.Edge = simrank.Edge{From: *u.From, To: *u.To}
	switch u.Op {
	case "", "insert", "+":
		up.Insert = true
	case "delete", "-":
		up.Insert = false
	default:
		return up, fmt.Errorf(`op %q is not "insert" or "delete"`, u.Op)
	}
	return up, nil
}

// decodeUpdates accepts either a single update object or an array of
// them — POST /updates treats both as one write request. The shape is
// sniffed from the first non-whitespace byte so the body is parsed once.
func decodeUpdates(body []byte) ([]simrank.Update, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	var wire []rawUpdate
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &wire); err != nil {
			return nil, err
		}
	} else {
		var one rawUpdate
		if err := json.Unmarshal(trimmed, &one); err != nil {
			return nil, err
		}
		wire = []rawUpdate{one}
	}
	if len(wire) == 0 {
		return nil, fmt.Errorf("empty update batch")
	}
	ups := make([]simrank.Update, len(wire))
	for i, w := range wire {
		up, err := w.toUpdate()
		if err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
		ups[i] = up
	}
	return ups, nil
}

// PairJSON is the wire form of a scored node-pair.
type PairJSON struct {
	A     int     `json:"a"`
	B     int     `json:"b"`
	Score float64 `json:"score"`
}

func toPairJSON(ps []simrank.Pair) []PairJSON {
	out := make([]PairJSON, len(ps))
	for i, p := range ps {
		out[i] = PairJSON{A: p.A, B: p.B, Score: p.Score}
	}
	return out
}

// SimilarityResponse answers GET /similarity. Stderr is the sampling
// standard error of the score on the approx backend (|true − score| ≤
// 3·stderr with ≈99% confidence); exact backends omit it.
type SimilarityResponse struct {
	A      int     `json:"a"`
	B      int     `json:"b"`
	Score  float64 `json:"score"`
	Stderr float64 `json:"stderr,omitempty"`
}

// TopKResponse answers GET /topk and GET /topkfor.
type TopKResponse struct {
	Pairs []PairJSON `json:"pairs"`
}

// UpdateResponse answers POST /updates: Enqueued for fire-and-forget
// (202), Applied once the request's batch has committed (200, wait mode).
type UpdateResponse struct {
	Enqueued int `json:"enqueued,omitempty"`
	Applied  int `json:"applied,omitempty"`
}

// NodesRequest and NodesResponse serve POST /nodes.
type NodesRequest struct {
	Count int `json:"count"`
}

type NodesResponse struct {
	First int `json:"first"`
	Nodes int `json:"nodes"`
}

// SnapshotResponse answers POST /snapshot.
type SnapshotResponse struct {
	Path string `json:"path"`
}

// StatsResponse answers GET /stats. The pipeline counters make the write
// coalescing observable: Batches is the number of ApplyBatch commits, so
// UpdatesApplied/Batches is the realized coalescing factor.
type StatsResponse struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`

	// Backend names the similarity store serving this engine (dense,
	// packed or approx); StoreBytes is its resident size — the number an
	// operator watches when deciding which tier a graph belongs on.
	Backend    string `json:"backend"`
	StoreBytes int64  `json:"store_bytes"`

	// MVCC read-path gauges. Epoch is the published view's version
	// (strictly monotone, +1 per committed mutation); ViewAgeMS is how
	// long ago that view was published — how stale the data a fresh read
	// observes can be, normally bounded by the write inter-arrival time;
	// InflightReaders counts calls inside the current view right now;
	// ViewsPublished counts publishes over the process lifetime.
	Epoch           uint64  `json:"epoch"`
	ViewAgeMS       float64 `json:"view_age_ms"`
	InflightReaders int64   `json:"inflight_readers"`
	ViewsPublished  int64   `json:"views_published"`

	UpdatesEnqueued int64 `json:"updates_enqueued"`
	UpdatesApplied  int64 `json:"updates_applied"`
	UpdatesRejected int64 `json:"updates_rejected"`
	Batches         int64 `json:"batches"`
	FailedBatches   int64 `json:"failed_batches"`
	MaxBatch        int64 `json:"max_batch"`
	QueueDepth      int64 `json:"queue_depth"`

	// Update commit latency over a sliding window of recent apply calls
	// (µs per coalesced cycle, the engine-side cost a ?wait=1 client
	// waits through), zero until the first commit. update_workers keeps
	// its wire name but reports Options.Workers, the batch kernel's
	// width (0 = GOMAXPROCS); updates themselves run on one goroutine.
	UpdateP50Us   int64 `json:"update_p50_us"`
	UpdateP99Us   int64 `json:"update_p99_us"`
	UpdateWorkers int   `json:"update_workers"`

	// Query-cache counters (all zero with -topk-cache 0). The miss
	// counters are the scans actually performed: /topkfor traffic is
	// served entirely from cache while cache_row_misses holds still, and
	// cache_invalidated_rows / updates_applied is the realized precision
	// of the dirty-row invalidation.
	CacheRowHits         int64 `json:"cache_row_hits"`
	CacheRowMisses       int64 `json:"cache_row_misses"`
	CacheGlobalHits      int64 `json:"cache_global_hits"`
	CacheGlobalMisses    int64 `json:"cache_global_misses"`
	CacheInvalidatedRows int64 `json:"cache_invalidated_rows"`
	CacheFlushes         int64 `json:"cache_flushes"`
	CacheEvictions       int64 `json:"cache_evictions"`
	CachedRows           int   `json:"cached_rows"`

	// Approx-tier repair gauges (zero on the exact backends):
	// WalksRepaired is the cumulative count of stored walks whose suffix
	// was resampled by incremental repair; WalkResampleFraction is that
	// work divided by what full per-update rebuilds would have resampled
	// — the affected-area win, ≈ the mean walk-visit probability of the
	// updated nodes.
	WalksRepaired        uint64  `json:"walks_repaired"`
	WalkResampleFraction float64 `json:"walk_resample_fraction"`

	// Write-ahead-log gauges, populated only when the process runs with
	// -wal-dir (WALEnabled says so; the others are zero otherwise).
	// WALEpoch is the newest logged record's epoch. Every epoch after
	// boot is a logged mutation, so once the process has committed a
	// write WALEpoch equals Epoch after each publish, unless an append
	// failed; WALFailures counts commits whose record or group-commit
	// fsync failed (nonzero means acknowledged state could be lost in a
	// crash — page someone).
	WALEnabled  bool   `json:"wal_enabled"`
	WALEpoch    uint64 `json:"wal_epoch"`
	WALSegments int    `json:"wal_segments"`
	WALBytes    int64  `json:"wal_bytes"`
	WALFsyncs   int64  `json:"wal_fsyncs"`
	WALFailures int64  `json:"wal_failures"`
	// WALSubscribers counts live GET /wal replication streams (0 without
	// a WAL).
	WALSubscribers int64 `json:"wal_subscribers,omitempty"`

	// Replication gauges, populated only on a follower (-follow; Leader
	// names who it follows). ReplicaLagEpochs and ReplicaLagMS measure
	// how far behind the leader's last known committed epoch this
	// follower's serving view is — in versions and in wall time
	// continuously spent behind; RecordsStreamed counts records applied
	// off the stream this process lifetime (a restarted follower that
	// resumed from its local snapshot+log shows a small number here, not
	// the leader's full history); Reconnects counts stream re-dials — a
	// climbing value with flat RecordsStreamed is a stalled or flapping
	// leader.
	Leader           string  `json:"leader,omitempty"`
	ReplicaLagEpochs uint64  `json:"replica_lag_epochs,omitempty"`
	ReplicaLagMS     float64 `json:"replica_lag_ms,omitempty"`
	RecordsStreamed  int64   `json:"records_streamed,omitempty"`
	Reconnects       int64   `json:"reconnects,omitempty"`
	ReplicaConnected bool    `json:"replica_connected,omitempty"`

	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ReadyResponse answers GET /readyz: Ready is false (with a 503) until
// the engine is booted/restored and its first MVCC view is published,
// after which Epoch reports the serving view's version. On a follower,
// Ready additionally requires the replication stream to be connected
// and within the configured lag bound; the replica fields report the
// gate's inputs either way. /healthz stays pure liveness — a booting
// process is alive but not ready.
type ReadyResponse struct {
	Ready bool   `json:"ready"`
	Epoch uint64 `json:"epoch"`

	ReplicaLagEpochs uint64 `json:"replica_lag_epochs,omitempty"`
	ReplicaConnected bool   `json:"replica_connected,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer. Leader is set on
// the 409 a read replica answers to writes: the base URL they belong at.
type ErrorResponse struct {
	Error  string `json:"error"`
	Leader string `json:"leader,omitempty"`
}
