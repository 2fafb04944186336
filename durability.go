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
// snapshot would forget it. A log whose disk call failed stays failed
// (wal.WAL.Append), so every later mutation reports ErrDurability too,
// and the log ends at the last record before the failure, which a
// restart replays. Callers distinguish it from a rejected mutation with
// errors.Is: a rejected mutation changed nothing, a durability error
// changed everything but the disk.
var ErrDurability = errors.New("simrank: committed but not logged durably")

// SetWAL installs w as the engine's write-ahead log: from now on every
// committed mutation — Apply and ApplyBatch (one record per call, so
// the pipeline's coalescing is preserved in the log and replay takes
// the same side of the recompute crossover), AddNodes, Recompute — is
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
// boundaries and the recompute crossover reproduce exactly) and must
// land the engine on the record's own epoch, so post-replay appends and
// snapshot floors stay coherent with the retained log.
//
// ctx aborts between records (the boot path wires SIGTERM to it):
// replay stops cleanly with ctx's error and no further state is
// touched — the caller must then exit WITHOUT snapshotting the
// half-replayed state. Any record that fails to apply — an update the
// graph rejects, an epoch that is not the engine's next (a record is
// missing before it) — aborts the same way, before that record touches
// anything: a log that disagrees with the state it claims to extend is
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
// apply, or whose epoch is not the follower's next (it repeats a record
// or follows a missing one), means the stream and the local state
// disagree — the follower must stop loudly rather than fork silently.
// Such a record is refused before it touches anything. ErrDurability
// wraps a local WAL append failure on a record that DID apply and
// publish.
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

// walStep returns how many epochs applying rec advances the engine: one
// for an Update, AddNodes or Recompute record, and for a Batch record
// one when the batch takes the recompute crossover, else one per update.
func (e *Engine) walStep(rec *wal.Record) uint64 {
	if rec.Kind == wal.KindBatch && !e.recomputes(len(rec.Updates)) {
		return uint64(len(rec.Updates))
	}
	return 1
}

// applyWALRecord applies one logged operation to the engine, which must
// land on the record's epoch: a record whose epoch is not the engine's
// epoch plus walStep is refused before anything applies. That catches a
// repeated record, a record after a missing one, and a batch logged by
// an engine that took the other side of the recompute crossover.
//
// One gap passes: when the record after it is a batch of k that the
// writer recomputed (one epoch) but this engine, whose |E| lacks the
// missing record, folds (k epochs), and the missing record advanced
// k−1 epochs. A record carries no crossover bit, so that log cannot be
// told from an intact one by epochs alone. The WAL no longer writes a
// log with a gap: after a failed append it refuses every later one.
func (e *Engine) applyWALRecord(rec *wal.Record) error {
	if next := e.epoch + e.walStep(rec); rec.Epoch != next {
		return fmt.Errorf("record epoch %d is not the engine's next epoch %d (engine at %d): the log skips, repeats or diverges",
			rec.Epoch, next, e.epoch)
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
		if len(rec.Updates) == 0 {
			return fmt.Errorf("batch record holds no updates")
		}
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
	return nil
}
