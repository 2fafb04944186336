// Package replica is the follower half of simrankd's read-replica
// replication: a client that tails a leader's write-ahead log over
// HTTP (GET /wal?from=<epoch>, served by internal/server), applies
// every record through the SAME code path boot-time WAL replay uses
// (simrank.ConcurrentEngine.ApplyReplicated → applyWALRecord), and
// publishes one MVCC read view per applied epoch. Because Inc-SR
// replay is deterministic and bit-identical — the repository's
// equivalence harnesses pin this — a follower at epoch E serves
// exactly the leader's answers at epoch E; the epoch is the
// replication position end to end.
//
// The protocol is the WAL's own record framing (wal.EncodeFrame /
// wal.FrameReader): the leader first replays its log above the
// requested epoch, then tails live appends, interleaving heartbeat
// frames that carry its newest committed epoch so an idle leader is
// distinguishable from a dead one and the follower can compute lag
// with no records flowing.
//
// Failure model:
//
//   - A broken or stalled connection (no frame within StallTimeout) is
//     routine: reconnect with exponential backoff from the last applied
//     epoch, counting Stats.Reconnects. A leader restart looks exactly
//     like this.
//   - An epoch that fails to advance past the follower's state — a
//     regressed record or heartbeat, a record the engine rejects — is
//     divergence: the leader's history and the follower's disagree
//     (e.g. a leader restarted without its log), and replaying further
//     would fork silently. Run returns ErrDiverged and the follower
//     must be re-seeded from a leader snapshot.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	simrank "repro"
	"repro/internal/wal"
)

// ErrDiverged marks a terminal replication failure: the leader's
// stream cannot extend the follower's state. Wrapped errors carry the
// detail; errors.Is(err, ErrDiverged) identifies the class.
var ErrDiverged = errors.New("replica: leader stream diverged from local state")

// Options tunes a Replica. Leader is required; everything else has a
// usable default.
type Options struct {
	// Leader is the leader's base URL (e.g. "http://10.0.0.1:8080").
	Leader string
	// LagBound is the catch-up tolerance in epochs: CaughtUp (and so
	// the follower's /readyz) holds while leaderEpoch−appliedEpoch ≤
	// LagBound and the stream is connected. 0 (the default) demands the
	// follower be fully caught up with the leader's last known epoch.
	LagBound uint64
	// StallTimeout reconnects a stream that delivered no frame (record
	// or heartbeat) for this long — the liveness watchdog behind a
	// leader that is up at TCP level but wedged. Default 10s; keep it
	// above the leader's heartbeat interval.
	StallTimeout time.Duration
	// BackoffMin and BackoffMax bound the exponential reconnect backoff
	// (defaults 100ms and 5s).
	BackoffMin, BackoffMax time.Duration
	// Client is the HTTP client used for the stream (default: a client
	// with no timeout — the stream is long-lived by design).
	Client *http.Client
	// OnApplied, when non-nil, is called synchronously after each
	// record's view publishes, with the applied epoch — at that moment
	// the engine's published view is exactly that epoch. Test hook for
	// the per-epoch equivalence harness.
	OnApplied func(epoch uint64)
}

func (o Options) withDefaults() Options {
	if o.StallTimeout <= 0 {
		o.StallTimeout = 10 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// Stats is the follower's observability snapshot, served as the /stats
// replica_* fields.
type Stats struct {
	// AppliedEpoch is the follower's last applied (and published)
	// record epoch; LeaderEpoch is the newest leader epoch any frame
	// has reported. LagEpochs is their difference (0 when caught up or
	// when no frame has arrived yet — see LeaderKnown).
	AppliedEpoch uint64
	LeaderEpoch  uint64
	LagEpochs    uint64
	// LagMS is how long the follower has continuously been behind the
	// leader's known epoch (0 while caught up): the staleness bound a
	// reader of this follower observes.
	LagMS float64
	// Records counts records applied off the stream over the process
	// lifetime; Reconnects counts stream re-dials after the first
	// attempt. A climbing Reconnects with flat Records is the signature
	// of a stalled or flapping leader.
	Records    int64
	Reconnects int64
	// Connected reports a currently-open stream; LeaderKnown reports
	// that at least one frame has ever arrived (before that, lag is
	// meaningless and the follower is not ready).
	Connected   bool
	LeaderKnown bool
}

// Replica tails one leader and applies its records to one engine. The
// engine must be booted from the same base state as the leader (same
// initial graph or a restored leader snapshot) with the same Options —
// the stream carries only mutations above the follower's epoch.
type Replica struct {
	eng  *simrank.ConcurrentEngine
	opts Options

	applied     atomic.Uint64 // last applied record epoch
	leaderEpoch atomic.Uint64 // newest epoch any frame reported
	leaderKnown atomic.Bool
	records     atomic.Int64
	reconnects  atomic.Int64
	connected   atomic.Bool
	behindSince atomic.Int64 // unix-nano when lag became nonzero; 0 = caught up

	// streamMadeProgress: at least one frame arrived on the last
	// connection — a healthy leader that later drops resets the backoff,
	// while a leader refusing every dial keeps escalating it. Only the
	// Run goroutine touches it.
	streamMadeProgress bool
}

// New builds a follower over eng, whose current epoch (e.g. restored
// from a local snapshot + WAL) is the resume position.
func New(eng *simrank.ConcurrentEngine, opts Options) *Replica {
	r := &Replica{eng: eng, opts: opts.withDefaults()}
	r.applied.Store(eng.Epoch())
	return r
}

// Stats returns the follower's current gauges.
func (r *Replica) Stats() Stats {
	st := Stats{
		AppliedEpoch: r.applied.Load(),
		LeaderEpoch:  r.leaderEpoch.Load(),
		Records:      r.records.Load(),
		Reconnects:   r.reconnects.Load(),
		Connected:    r.connected.Load(),
		LeaderKnown:  r.leaderKnown.Load(),
	}
	if st.LeaderEpoch > st.AppliedEpoch {
		st.LagEpochs = st.LeaderEpoch - st.AppliedEpoch
	}
	if since := r.behindSince.Load(); since != 0 {
		st.LagMS = float64(time.Since(time.Unix(0, since)).Microseconds()) / 1e3
	}
	return st
}

// CaughtUp reports whether the follower may serve traffic: the stream
// is connected, the leader's position is known, and the epoch lag is
// within Options.LagBound. The follower's /readyz gates on this.
func (r *Replica) CaughtUp() bool {
	st := r.Stats()
	return st.Connected && st.LeaderKnown && st.LagEpochs <= r.opts.LagBound
}

// Run tails the leader until ctx is canceled (returns nil) or the
// stream diverges from local state (returns an ErrDiverged-wrapped
// error; the follower must not keep serving as if it were a replica).
// Connection failures and stalls are retried forever with exponential
// backoff — a leader restart is routine, not terminal.
func (r *Replica) Run(ctx context.Context) error {
	backoff := r.opts.BackoffMin
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			r.reconnects.Add(1)
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > r.opts.BackoffMax {
				backoff = r.opts.BackoffMax
			}
		}
		err := r.stream(ctx)
		if ctx.Err() != nil {
			return nil
		}
		if errors.Is(err, ErrDiverged) {
			return err
		}
		if r.streamMadeProgress {
			backoff = r.opts.BackoffMin
		}
	}
}

// stream runs one connection: dial, decode frames, apply records.
// Returns on any connection-level error (caller reconnects) or
// divergence (ErrDiverged, terminal). nil only when ctx ended.
func (r *Replica) stream(ctx context.Context) error {
	r.streamMadeProgress = false
	connCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	from := r.applied.Load()
	req, err := http.NewRequestWithContext(connCtx, http.MethodGet,
		r.opts.Leader+"/wal?from="+strconv.FormatUint(from, 10), nil)
	if err != nil {
		return err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("leader answered %d to /wal?from=%d: %s", resp.StatusCode, from, body)
		if resp.StatusCode == http.StatusGone {
			// The leader truncated the records we need: no amount of
			// retrying brings them back. Re-seed from a leader snapshot.
			return fmt.Errorf("%w: %v", ErrDiverged, err)
		}
		return err
	}

	r.connected.Store(true)
	defer r.connected.Store(false)

	// The stall watchdog: every frame pushes the deadline out; silence
	// past StallTimeout cancels the in-flight read, failing the
	// connection over to the reconnect loop.
	watchdog := time.AfterFunc(r.opts.StallTimeout, cancel)
	defer watchdog.Stop()

	fr := wal.NewFrameReader(resp.Body)
	for {
		rec, err := fr.Next()
		if err != nil {
			if connCtx.Err() != nil && ctx.Err() == nil {
				return fmt.Errorf("stream stalled: no frame within %v", r.opts.StallTimeout)
			}
			return err
		}
		watchdog.Reset(r.opts.StallTimeout)
		r.streamMadeProgress = true
		if err := r.handleFrame(rec); err != nil {
			return err
		}
	}
}

// handleFrame applies one decoded frame: heartbeats move the leader's
// known position, records advance the follower's state. Both enforce
// strict epoch coherence — a heartbeat behind the follower's applied
// epoch means the leader's history is not ours, and ApplyReplicated
// refuses a record whose epoch is not the follower's next (a repeat, or
// the record after a missing one).
func (r *Replica) handleFrame(rec *wal.Record) error {
	applied := r.applied.Load()
	if rec.Kind == wal.KindHeartbeat {
		if rec.Epoch < applied {
			return fmt.Errorf("%w: leader heartbeat at epoch %d behind follower epoch %d (leader lost history?)",
				ErrDiverged, rec.Epoch, applied)
		}
		r.noteLeaderEpoch(rec.Epoch)
		return nil
	}
	if err := r.eng.ApplyReplicated(rec); err != nil {
		if errors.Is(err, simrank.ErrDurability) {
			// The record applied and published; only the follower's local
			// WAL missed it. Not divergence — but the local log can no
			// longer extend, so surface it as a connection-level error:
			// the reconnect loop retries, and the next ApplyReplicated
			// fails the same way until the operator intervenes.
			return err
		}
		return fmt.Errorf("%w: applying %s record at epoch %d: %v", ErrDiverged, rec.Kind, rec.Epoch, err)
	}
	r.applied.Store(rec.Epoch)
	r.records.Add(1)
	r.noteLeaderEpoch(rec.Epoch)
	if r.opts.OnApplied != nil {
		r.opts.OnApplied(rec.Epoch)
	}
	return nil
}

// noteLeaderEpoch raises the known leader position and maintains the
// behind-since clock that backs Stats.LagMS.
func (r *Replica) noteLeaderEpoch(epoch uint64) {
	for {
		cur := r.leaderEpoch.Load()
		if epoch <= cur || r.leaderEpoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	r.leaderKnown.Store(true)
	if r.leaderEpoch.Load() > r.applied.Load() {
		r.behindSince.CompareAndSwap(0, time.Now().UnixNano())
	} else {
		r.behindSince.Store(0)
	}
}
