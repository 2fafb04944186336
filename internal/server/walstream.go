package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// walHub fans committed WAL records out to GET /wal subscribers. Its
// publish side runs inside the engine's commit path (the SetWALNotify
// hook, under the writer mutex, after the durable append and before the
// view publishes), so it must never block: each subscriber gets a
// buffered channel, and one that falls subBuffer records behind is
// dropped on the spot — its stream ends, and the client reconnects from
// its last applied epoch, re-reading the backlog from the log files
// instead of stalling every writer in the process.
type walHub struct {
	mu   sync.Mutex
	subs map[chan *wal.Record]struct{}
	n    atomic.Int64 // current subscriber count, for /stats
}

// subBuffer is each subscriber's cushion between the commit path and
// its network writer. At ~30 bytes a record this is a few KiB per
// follower; a healthy follower drains far faster than commits arrive.
const subBuffer = 256

func newWALHub() *walHub {
	return &walHub{subs: make(map[chan *wal.Record]struct{})}
}

// publish hands one committed record to every subscriber, copying the
// Updates slice first (the engine shares it with the committing caller,
// and subscribers consume asynchronously). Non-blocking by
// construction: a full subscriber is evicted, not waited on.
func (h *walHub) publish(rec *wal.Record) {
	cp := &wal.Record{Epoch: rec.Epoch, Kind: rec.Kind, Count: rec.Count}
	if len(rec.Updates) > 0 {
		cp.Updates = append(rec.Updates[:0:0], rec.Updates...)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- cp:
		default:
			delete(h.subs, ch)
			close(ch)
			h.n.Add(-1)
		}
	}
}

// subscribe registers a new tail. The returned channel is closed by the
// hub (eviction or unsubscribe), never by the receiver.
func (h *walHub) subscribe() chan *wal.Record {
	ch := make(chan *wal.Record, subBuffer)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	h.n.Add(1)
	return ch
}

// unsubscribe removes ch if the hub still owns it; a channel already
// evicted by publish is left alone (it is closed and counted out).
func (h *walHub) unsubscribe(ch chan *wal.Record) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
		h.n.Add(-1)
	}
}

// subscribers reports the number of live streams.
func (h *walHub) subscribers() int64 { return h.n.Load() }

// defaultHeartbeatInterval paces the liveness frames on an idle stream;
// Config.HeartbeatInterval overrides it.
const defaultHeartbeatInterval = time.Second

// GET /wal?from=<epoch> — the replication stream: every WAL record with
// epoch strictly greater than from, framed exactly as on disk
// (wal.EncodeFrame), backlog first and live tail forever after, with
// heartbeat frames carrying the leader's newest committed epoch so a
// follower of an idle leader still measures its lag. The handler
// subscribes to live commits BEFORE replaying the backlog and dedups by
// epoch, so a record landing between the two phases is sent exactly
// once and none is skipped.
//
// Failure answers: 409 when the process runs without a WAL (nothing to
// stream), 410 Gone when from lies below the truncation floor — the
// records the follower needs were dropped after a snapshot covered
// them, and it must re-seed from a leader snapshot instead of retrying.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	lw := s.cfg.WAL
	if lw == nil {
		writeError(w, http.StatusConflict,
			errors.New("this server runs without a write-ahead log (-wal-dir); there is no stream to follow"))
		return
	}
	from := uint64(0)
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("from=%q is not an unsigned integer epoch", raw))
			return
		}
		from = v
	}
	if floor := lw.Stats().TruncatedThrough; from < floor {
		writeError(w, http.StatusGone,
			fmt.Errorf("records through epoch %d were truncated after a snapshot covered them; a follower at epoch %d must re-seed from a leader snapshot", floor, from))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}

	// Subscribe first: anything committed from here on reaches the
	// channel, anything committed before is on disk for Replay, and the
	// overlap (committed between subscribe and Replay's segment
	// snapshot) is deduped by lastSent below.
	ch := s.walHub.subscribe()
	defer s.walHub.unsubscribe(ch)

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	var buf []byte
	send := func(rec *wal.Record) error {
		buf = wal.EncodeFrame(buf[:0], rec)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}

	// Heartbeats carry the newest durable epoch: the larger of the
	// engine's serving epoch and the log's last record epoch. A record
	// reaches this stream after its append and before its view
	// publishes (live through the hub, or from disk through Replay), so
	// the serving epoch alone can trail a record already sent, and a
	// follower stops on a heartbeat behind its own epoch. The log's
	// epoch alone can trail the serving one on a leader restored from a
	// snapshot whose covered records were truncated away. A leader that
	// really lost history still reports both behind the follower.
	heartbeat := func() error {
		return send(wal.Heartbeat(max(s.eng.Epoch(), lw.Stats().LastEpoch)))
	}
	// Lead with a heartbeat: the follower learns the leader's committed
	// position (and so its own lag) before the first byte of backlog,
	// even when the leader is idle and the backlog is empty.
	if err := heartbeat(); err != nil {
		return
	}

	lastSent := from
	if err := lw.Replay(from, func(rec *wal.Record) error {
		lastSent = rec.Epoch
		return send(rec)
	}); err != nil {
		// Either the connection broke mid-backlog or the log became
		// unreadable under us (e.g. a concurrent truncation removed a
		// segment). The client reconnects from its applied epoch and gets
		// a fresh verdict — including the 410 if it is now below the floor.
		return
	}

	interval := s.cfg.HeartbeatInterval
	if interval <= 0 {
		interval = defaultHeartbeatInterval
	}
	hb := time.NewTicker(interval)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case rec, live := <-ch:
			if !live {
				// Evicted as a slow subscriber; end the stream so the client
				// reconnects and re-reads the backlog at its own pace.
				return
			}
			if rec.Epoch <= lastSent {
				continue // already sent during the backlog replay
			}
			lastSent = rec.Epoch
			if err := send(rec); err != nil {
				return
			}
		case <-hb.C:
			if err := heartbeat(); err != nil {
				return
			}
		}
	}
}
