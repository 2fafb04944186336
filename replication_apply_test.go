package simrank

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/wal"
)

// TestApplyWALRecordKinds pins the shared replay/replication apply path
// for every record kind: advancing a twin engine with applyWALRecord
// reproduces the public entry point — Apply, ApplyBatch, AddNodes,
// Recompute — bit-for-bit, epoch included. Boot-time WAL replay and the
// follower stream both ride this one function, so this table is the
// contract a new record kind must join.
func TestApplyWALRecordKinds(t *testing.T) {
	baseEdges := []Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}}
	opts := Options{K: 8, Workers: 1}
	cases := []struct {
		name   string
		mutate func(t *testing.T, e *Engine) *wal.Record
	}{
		{"update-insert", func(t *testing.T, e *Engine) *wal.Record {
			ups := []Update{{Edge: Edge{From: 0, To: 2}, Insert: true}}
			if _, err := e.Apply(ups[0]); err != nil {
				t.Fatal(err)
			}
			return &wal.Record{Epoch: e.Epoch(), Kind: wal.KindUpdate, Updates: ups}
		}},
		{"update-delete", func(t *testing.T, e *Engine) *wal.Record {
			ups := []Update{{Edge: Edge{From: 1, To: 2}, Insert: false}}
			if _, err := e.Apply(ups[0]); err != nil {
				t.Fatal(err)
			}
			return &wal.Record{Epoch: e.Epoch(), Kind: wal.KindUpdate, Updates: ups}
		}},
		{"batch", func(t *testing.T, e *Engine) *wal.Record {
			ups := []Update{
				{Edge: Edge{From: 3, To: 4}, Insert: true},
				{Edge: Edge{From: 4, To: 0}, Insert: true},
				{Edge: Edge{From: 0, To: 1}, Insert: false},
			}
			if err := e.ApplyBatch(ups); err != nil {
				t.Fatal(err)
			}
			return &wal.Record{Epoch: e.Epoch(), Kind: wal.KindBatch, Updates: ups}
		}},
		{"addnodes", func(t *testing.T, e *Engine) *wal.Record {
			if _, err := e.AddNodes(3); err != nil {
				t.Fatal(err)
			}
			return &wal.Record{Epoch: e.Epoch(), Kind: wal.KindAddNodes, Count: 3}
		}},
		{"recompute", func(t *testing.T, e *Engine) *wal.Record {
			e.Recompute()
			return &wal.Record{Epoch: e.Epoch(), Kind: wal.KindRecompute}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live, err := NewEngine(5, baseEdges, opts)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewEngine(5, baseEdges, opts)
			if err != nil {
				t.Fatal(err)
			}
			rec := tc.mutate(t, live)
			if err := twin.applyWALRecord(rec); err != nil {
				t.Fatalf("applyWALRecord(%s): %v", rec.Kind, err)
			}
			assertEnginesIdentical(t, WrapEngine(live), WrapEngine(twin))
		})
	}
}

// TestApplyWALRecordRejects: the shared apply path refuses records it
// cannot faithfully replay — that refusal is the follower's divergence
// detector, so every branch must stay loud.
func TestApplyWALRecordRejects(t *testing.T) {
	newEng := func(t *testing.T) *Engine {
		e, err := NewEngine(4, []Edge{{From: 0, To: 1}}, Options{K: 8, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	t.Run("stale-epoch", func(t *testing.T) {
		e := newEng(t)
		rec := &wal.Record{Epoch: e.Epoch(), Kind: wal.KindRecompute}
		if err := e.applyWALRecord(rec); err == nil {
			t.Fatal("record at the engine's own epoch applied")
		}
	})
	t.Run("unknown-kind", func(t *testing.T) {
		e := newEng(t)
		rec := &wal.Record{Epoch: e.Epoch() + 1, Kind: wal.Kind(77)}
		if err := e.applyWALRecord(rec); err == nil {
			t.Fatal("unknown record kind applied")
		}
	})
	t.Run("malformed-unit-update", func(t *testing.T) {
		e := newEng(t)
		rec := &wal.Record{Epoch: e.Epoch() + 1, Kind: wal.KindUpdate, Updates: []Update{
			{Edge: Edge{From: 1, To: 2}, Insert: true},
			{Edge: Edge{From: 2, To: 3}, Insert: true},
		}}
		if err := e.applyWALRecord(rec); err == nil {
			t.Fatal("unit-update record with two updates applied")
		}
	})
	t.Run("divergent-base", func(t *testing.T) {
		e := newEng(t)
		// The base already holds 0→1; a log claiming to insert it was
		// written against different state.
		rec := &wal.Record{Epoch: e.Epoch() + 1, Kind: wal.KindUpdate, Updates: []Update{
			{Edge: Edge{From: 0, To: 1}, Insert: true},
		}}
		if err := e.applyWALRecord(rec); err == nil {
			t.Fatal("insert of an existing edge applied")
		}
	})
	t.Run("epoch-overshoot", func(t *testing.T) {
		// A batch record's epoch step is decided by the replaying engine's
		// |E|: one per update below the recompute crossover, one above it.
		// A record claiming the other step was written against a base that
		// took the other path, and is refused before anything applies.
		batch := []Update{
			{Edge: Edge{From: 1, To: 2}, Insert: true},
			{Edge: Edge{From: 2, To: 3}, Insert: true},
			{Edge: Edge{From: 3, To: 1}, Insert: true},
		}
		// Node 0 points at 20 nodes: 3 updates < 0.15·21 edges fold.
		folding := []Edge{{From: 0, To: 1}}
		for v := 4; v < 24; v++ {
			folding = append(folding, Edge{From: 0, To: v})
		}
		for _, tc := range []struct {
			name  string
			edges []Edge
			step  uint64 // the step the record wrongly claims
		}{
			{"folded-batch-claims-1", folding, 1},
			{"recomputed-batch-claims-3", []Edge{{From: 0, To: 1}}, 3},
		} {
			t.Run(tc.name, func(t *testing.T) {
				e, err := NewEngine(24, tc.edges, Options{K: 8, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				rec := &wal.Record{Epoch: e.Epoch() + tc.step, Kind: wal.KindBatch, Updates: batch}
				if err := e.applyWALRecord(rec); err == nil {
					t.Fatal("batch record with the wrong epoch step applied")
				}
				if e.Epoch() != 0 || e.M() != len(tc.edges) || e.HasEdge(1, 2) {
					t.Fatalf("refused record changed the engine: epoch %d, %d edges", e.Epoch(), e.M())
				}
			})
		}
	})
}

// TestReplayRefusesRecordAfterGap: a log or stream that skips a record
// is refused at the record after the gap, before that record applies —
// boot-time replay and the follower path alike. The log holds epochs 1
// and 3; epoch 2 was never written (a failed append).
func TestReplayRefusesRecordAfterGap(t *testing.T) {
	edges := []Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}}
	opts := Options{K: 8, Workers: 1}
	rec1 := &wal.Record{Epoch: 1, Kind: wal.KindUpdate, Updates: []Update{{Edge: Edge{From: 0, To: 2}, Insert: true}}}
	rec3 := &wal.Record{Epoch: 3, Kind: wal.KindUpdate, Updates: []Update{{Edge: Edge{From: 2, To: 3}, Insert: true}}}
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //simrank:errok test cleanup on a SyncNone log
	for _, rec := range []*wal.Record{rec1, rec3} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// refused checks the writer's own state, which a failed replay
	// leaves unpublished.
	refused := func(t *testing.T, e *Engine) {
		t.Helper()
		if e.Epoch() != 1 || !e.HasEdge(0, 2) {
			t.Fatalf("epoch %d, edge 0→2 %v: want record 1 applied and epoch 1", e.Epoch(), e.HasEdge(0, 2))
		}
		if e.HasEdge(2, 3) {
			t.Fatal("the record after the gap applied")
		}
	}

	t.Run("ReplayWAL", func(t *testing.T) {
		ce, err := NewConcurrentEngine(4, edges, opts)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := ce.ReplayWAL(context.Background(), w)
		if err == nil {
			t.Fatal("ReplayWAL accepted a log with a missing record")
		}
		if applied != 1 || !strings.Contains(err.Error(), "epoch 3") {
			t.Fatalf("ReplayWAL applied %d records, err %v: want 1, naming epoch 3", applied, err)
		}
		refused(t, ce.eng)
	})
	t.Run("ApplyReplicated", func(t *testing.T) {
		ce, err := NewConcurrentEngine(4, edges, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ce.ApplyReplicated(rec1); err != nil {
			t.Fatal(err)
		}
		if err := ce.ApplyReplicated(rec3); err == nil {
			t.Fatal("ApplyReplicated accepted the record after a gap")
		}
		if ce.Epoch() != 1 || ce.HasEdge(2, 3) {
			t.Fatalf("published view at epoch %d, edge 2→3 %v: want epoch 1 without it", ce.Epoch(), ce.HasEdge(2, 3))
		}
		refused(t, ce.eng)
	})
}

// TestApplyReplicatedMatchesReplay is satellite proof that the follower
// stream path and boot-time replay are one: the same record sequence,
// fed once through ReplayWAL and once record-at-a-time through
// ApplyReplicated, lands both engines bit-identical to the leader —
// and the follower's own re-logged WAL replays to the same state again,
// epochs preserved, which is what lets a restarted follower resume from
// local disk instead of refetching the stream from scratch.
func TestApplyReplicatedMatchesReplay(t *testing.T) {
	edges := []Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}}
	opts := Options{K: 8, Workers: 1}
	leaderWAL, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer leaderWAL.Close() //simrank:errok test cleanup on a SyncNone log
	leader, err := NewConcurrentEngine(5, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	leader.SetWAL(leaderWAL)
	records := driveWALStream(t, leader)

	// Path one: boot-time replay, all records in one publish.
	fresh, err := NewEngine(5, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	replayed := WrapEngine(fresh)
	if applied, err := replayed.ReplayWAL(context.Background(), leaderWAL); err != nil || applied != records {
		t.Fatalf("ReplayWAL applied %d (err %v), want %d", applied, err, records)
	}
	assertEnginesIdentical(t, leader, replayed)

	// Path two: the follower stream, one ApplyReplicated (and one view
	// publish) per record, re-logging to its own local WAL.
	followerWAL, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer followerWAL.Close() //simrank:errok test cleanup on a SyncNone log
	fresh2, err := NewEngine(5, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	follower := WrapEngine(fresh2)
	follower.SetWAL(followerWAL)
	viewsBefore := follower.ViewInfo().Published
	streamed := 0
	if err := leaderWAL.Replay(0, func(rec *wal.Record) error {
		streamed++
		return follower.ApplyReplicated(rec)
	}); err != nil {
		t.Fatal(err)
	}
	if streamed != records {
		t.Fatalf("streamed %d records, want %d", streamed, records)
	}
	assertEnginesIdentical(t, leader, follower)
	if got := follower.ViewInfo().Published - viewsBefore; got != int64(records) {
		t.Fatalf("follower published %d views for %d records; followers serve one view per applied epoch", got, records)
	}

	// The follower's local log must now be equivalent to the leader's:
	// replaying it onto a third engine reproduces the same state, same
	// epochs.
	fresh3, err := NewEngine(5, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	restarted := WrapEngine(fresh3)
	if applied, err := restarted.ReplayWAL(context.Background(), followerWAL); err != nil || applied != records {
		t.Fatalf("replay of the follower's own log applied %d (err %v), want %d", applied, err, records)
	}
	assertEnginesIdentical(t, leader, restarted)
}

// TestApplyReplicatedDurabilityError: a record that applied and
// published but missed the follower's local log reports ErrDurability —
// the caller's cue to retry logging, not to treat the stream as
// diverged.
func TestApplyReplicatedDurabilityError(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := NewConcurrentEngine(4, nil, Options{K: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	follower.SetWAL(w)
	if err := w.Close(); err != nil { // every Append from here fails
		t.Fatal(err)
	}
	rec := &wal.Record{Epoch: follower.Epoch() + 1, Kind: wal.KindUpdate,
		Updates: []Update{{Edge: Edge{From: 0, To: 1}, Insert: true}}}
	err = follower.ApplyReplicated(rec)
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("error = %v, want ErrDurability", err)
	}
	if !follower.HasEdge(0, 1) || follower.Epoch() != rec.Epoch {
		t.Fatal("durability failure rolled back an applied replicated record")
	}
}
