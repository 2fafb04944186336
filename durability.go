package simrank

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/wal"
)

// ErrDurability wraps a write-ahead-log append failure on a mutation
// that COMMITTED: the in-memory state (and the published view) include
// the change, but the log does not, so a crash before the next
// snapshot would forget it — and the log tail past this point can no
// longer replay (the gap is detected loudly at the next boot). Callers
// distinguish it from a rejected mutation with errors.Is: a rejected
// mutation changed nothing, a durability error changed everything but
// the disk.
var ErrDurability = errors.New("simrank: committed but not logged durably")

// SetWAL installs w as the engine's write-ahead log: from now on every
// committed mutation — Apply and ApplyBatch (one record per call, so
// the pipeline's coalescing is preserved in the log and replay makes
// the same recompute-threshold choices), AddNodes, Recompute — is
// appended with its post-commit epoch BEFORE the view exposing it
// publishes. Install before the first mutation (simrankd does so
// before attaching the server) or the log will have holes; pass nil to
// stop logging. The engine does not own w: closing it remains the
// caller's job, after the engine can no longer write.
func (c *ConcurrentEngine) SetWAL(w *wal.WAL) {
	c.writerMu.Lock()
	defer c.writerMu.Unlock()
	c.wal = w
}

// SetWALNotify installs fn as the committed-record observer: after
// every successful WAL append (and before the view exposing the record
// publishes), fn receives the record that just became durable. This is
// the replication streaming hook — internal/server's hub fans the
// record out to GET /wal subscribers, so followers tail the live log
// without polling the files. fn runs under the writer mutex and must
// not block (the hub does non-blocking sends and drops slow
// subscribers, who re-catch-up from the log). The record's Updates
// slice is shared with the committing caller: consume it synchronously
// or copy. Install alongside SetWAL; a nil fn stops notifications.
func (c *ConcurrentEngine) SetWALNotify(fn func(*wal.Record)) {
	c.writerMu.Lock()
	defer c.writerMu.Unlock()
	c.walNotify = fn
}

// logRecord appends one committed mutation to the WAL (a no-op without
// one). Called with writerMu held, after the mutation committed and
// before its view publishes. A durably appended record is also handed
// to the walNotify hook, so replication subscribers observe exactly
// the records a crash recovery would replay.
func (c *ConcurrentEngine) logRecord(kind wal.Kind, ups []Update, count int) error {
	if c.wal == nil {
		return nil
	}
	rec := wal.Record{Epoch: c.eng.Epoch(), Kind: kind, Updates: ups, Count: count}
	if err := c.wal.Append(&rec); err != nil {
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	if c.walNotify != nil {
		c.walNotify(&rec)
	}
	return nil
}

// ReplayWAL applies the log tail above the engine's current epoch —
// for a restored engine, everything committed after its snapshot was
// serialized — WITHOUT re-logging, and publishes the result as one new
// view. Each record replays through the same entry point that produced
// it (Apply for unit records, ApplyBatch for coalesced ones, so batch
// boundaries and the recompute-threshold crossover reproduce exactly),
// then the engine adopts the record's epoch, keeping the numbering of
// the previous process so post-replay appends and snapshot floors stay
// coherent with the retained log.
//
// ctx aborts between records (the boot path wires SIGTERM to it):
// replay stops cleanly with ctx's error and no further state is
// touched — the caller must then exit WITHOUT snapshotting the
// half-replayed state. Any record that fails to apply — an update the
// graph rejects, an epoch that does not line up — aborts the same way:
// a log that disagrees with the state it claims to extend is
// corruption, and replaying past it would silently diverge from the
// acknowledged stream.
func (c *ConcurrentEngine) ReplayWAL(ctx context.Context, w *wal.WAL) (applied int, err error) {
	c.writerMu.Lock()
	defer c.writerMu.Unlock()
	err = w.Replay(c.eng.Epoch(), func(rec *wal.Record) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("wal replay aborted after %d records: %w", applied, cerr)
		}
		if rerr := c.eng.applyWALRecord(rec); rerr != nil {
			return fmt.Errorf("wal replay at epoch %d (%s record): %w", rec.Epoch, rec.Kind, rerr)
		}
		applied++
		return nil
	})
	if applied > 0 && err == nil {
		c.publish()
	}
	return applied, err
}

// ApplyReplicated applies one record received from a replication
// stream (internal/replica's client feeds it records decoded off the
// leader's GET /wal stream) and publishes the resulting state as one
// new view at the record's epoch. It shares applyWALRecord with
// ReplayWAL — the boot-time replay and the follower tail are ONE code
// path, so a record kind added later cannot replay differently on
// leader and follower — but differs from replay in two ways: each
// record publishes its own view (followers serve reads per applied
// epoch, not once per boot), and the record IS re-logged to the
// follower's local WAL when one is installed (SetWAL), preserving the
// leader's epochs, so a restarted follower resumes from its local
// snapshot+log instead of refetching the stream from epoch 0.
//
// Errors are the caller's divergence signal: a record that fails to
// apply, or whose epoch does not advance past the follower's state,
// means the stream and the local state disagree — the follower must
// stop loudly rather than fork silently. ErrDurability wraps a local
// WAL append failure on a record that DID apply and publish.
func (c *ConcurrentEngine) ApplyReplicated(rec *wal.Record) error {
	c.writerMu.Lock()
	defer c.writerMu.Unlock()
	c.prepareWrite()
	if err := c.eng.applyWALRecord(rec); err != nil {
		return err
	}
	werr := c.logRecord(rec.Kind, rec.Updates, rec.Count)
	c.publish()
	return werr
}

// applyWALRecord applies one logged operation to the engine and adopts
// the record's epoch. The record must advance past the engine's
// current epoch (wal.Replay's from-filter and ordering guarantee this
// for an intact log).
func (e *Engine) applyWALRecord(rec *wal.Record) error {
	if rec.Epoch <= e.epoch {
		return fmt.Errorf("record epoch %d does not advance past engine epoch %d", rec.Epoch, e.epoch)
	}
	switch rec.Kind {
	case wal.KindUpdate:
		if len(rec.Updates) != 1 {
			return fmt.Errorf("unit-update record holds %d updates", len(rec.Updates))
		}
		if _, err := e.Apply(rec.Updates[0]); err != nil {
			return err
		}
	case wal.KindBatch:
		if err := e.ApplyBatch(rec.Updates); err != nil {
			return err
		}
	case wal.KindAddNodes:
		if _, err := e.AddNodes(rec.Count); err != nil {
			return err
		}
	case wal.KindRecompute:
		e.Recompute()
	default:
		return fmt.Errorf("unknown record kind %d", uint8(rec.Kind))
	}
	if e.epoch > rec.Epoch {
		// The replayed operation took MORE epoch steps than the original
		// commit — the base state diverged (e.g. a different
		// recompute-threshold decision). Refusing is the only safe answer.
		return fmt.Errorf("replay overshot the record epoch (%d > %d): base state diverges from the log", e.epoch, rec.Epoch)
	}
	e.epoch = rec.Epoch
	return nil
}
