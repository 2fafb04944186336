package simrank

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/wal"
)

// walFuzzReader hands out FuzzWALReplay's input one byte at a time,
// reading zeros past the end.
type walFuzzReader struct {
	data []byte
	pos  int
}

func (r *walFuzzReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// walFuzzSeed encodes a FuzzWALReplay input: the node count n ∈ [2, 12],
// the record to drop, the starting edges, then each op's bytes — {0,
// from, to} for Apply, {4, k−1, from₁, to₁, …} for an ApplyBatch of k,
// {6, count−1} for AddNodes and {7} for Recompute.
func walFuzzSeed(n, drop int, edges [][2]byte, ops ...[]byte) []byte {
	b := []byte{byte(n - 2), byte(drop), byte(len(edges))}
	for _, e := range edges {
		b = append(b, e[0], e[1])
	}
	b = append(b, byte(len(ops)))
	for _, op := range ops {
		b = append(b, op...)
	}
	return b
}

// FuzzWALReplay drives a decoded stream of Apply, ApplyBatch (on both
// sides of the recompute crossover), AddNodes and Recompute calls into a
// ConcurrentEngine logging to a WAL, then replays the log into a fresh
// engine from the same start: it must land on the same epoch with every
// Similarity equal. With one record (not the last) dropped, replay must
// fail, naming the record after the gap.
//
// One gap shape passes the epoch check by construction, and the test
// admits exactly that shape: the record after the gap is a batch of k
// the writer recomputed (one epoch) but the replaying engine, whose |E|
// lacks the dropped record, folds (k epochs), and the dropped record
// advanced k−1 epochs. The log format carries no crossover bit, so that
// gap cannot be told from an intact log by epochs alone.
func FuzzWALReplay(f *testing.F) {
	ring := [][2]byte{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {2, 5}}
	f.Add(walFuzzSeed(6, 1, ring,
		[]byte{0, 1, 3}, []byte{0, 0, 1}, []byte{0, 4, 1}, []byte{0, 1, 3}))
	f.Add(walFuzzSeed(6, 0, ring,
		[]byte{0, 2, 0}, []byte{4, 3, 0, 2, 3, 1, 5, 5, 1, 4}, []byte{4, 1, 4, 2, 1, 1}, []byte{0, 3, 4}))
	f.Add(walFuzzSeed(5, 1, ring[:4],
		[]byte{0, 4, 0}, []byte{6, 1}, []byte{0, 0, 6}, []byte{0, 6, 5}))
	f.Add(walFuzzSeed(4, 1, ring[:3],
		[]byte{0, 3, 0}, []byte{7}, []byte{0, 0, 2}))
	// The admitted shape: 14 edges, a delete, then a 2-update batch the
	// writer recomputes at 13 edges; without the delete it folds.
	var chords [][2]byte
	for i := byte(0); i < 8; i++ {
		chords = append(chords, [2]byte{i, (i + 1) % 8})
		if i < 6 {
			chords = append(chords, [2]byte{i, i + 2})
		}
	}
	f.Add(walFuzzSeed(8, 0, chords, []byte{0, 0, 1}, []byte{4, 1, 0, 4, 1, 5}))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := &walFuzzReader{data: data}
		n0 := 2 + in.next()%11
		drop := in.next()
		var edges []Edge
		for k := in.next() % (3*n0 + 1); k > 0; k-- {
			edges = append(edges, Edge{From: in.next() % n0, To: in.next() % n0})
		}
		opts := Options{K: 4, Workers: 1}
		fresh := func() *ConcurrentEngine {
			e, err := NewConcurrentEngine(n0, edges, opts)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}

		w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close() //simrank:errok test cleanup on a SyncNone log
		leader := fresh()
		leader.SetWAL(w)
		// toggle picks an edge from the input and flips it, so every
		// update applies in sequence.
		toggle := func(present func(Edge) bool, n int) Update {
			e := Edge{From: in.next() % n, To: in.next() % n}
			return Update{Edge: e, Insert: !present(e)}
		}
		for ops := in.next() % 25; ops > 0; ops-- {
			n, _ := leader.Size()
			var err error
			switch op := in.next() % 8; {
			case op < 4:
				_, err = leader.Apply(toggle(func(e Edge) bool { return leader.HasEdge(e.From, e.To) }, n))
			case op < 6:
				pending := map[Edge]bool{}
				present := func(e Edge) bool {
					if p, ok := pending[e]; ok {
						return p
					}
					return leader.HasEdge(e.From, e.To)
				}
				ups := make([]Update, 1+in.next()%8)
				for i := range ups {
					ups[i] = toggle(present, n)
					pending[ups[i].Edge] = ups[i].Insert
				}
				err = leader.ApplyBatch(ups)
			case op == 6:
				_, err = leader.AddNodes(1 + in.next()%2)
			default:
				err = leader.Recompute()
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		var recs []wal.Record
		if err := w.Replay(0, func(rec *wal.Record) error {
			r := *rec
			r.Updates = slices.Clone(rec.Updates)
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		// The full log replays to the leader's epoch and scores.
		replayed := fresh()
		if applied, err := replayed.ReplayWAL(context.Background(), w); err != nil || applied != len(recs) {
			t.Fatalf("ReplayWAL applied %d of %d records: %v", applied, len(recs), err)
		}
		n, m := leader.Size()
		if rn, rm := replayed.Size(); rn != n || rm != m || replayed.Epoch() != leader.Epoch() {
			t.Fatalf("replay at (n %d, m %d, epoch %d), leader at (%d, %d, %d)", rn, rm, replayed.Epoch(), n, m, leader.Epoch())
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if got, want := replayed.Similarity(a, b), leader.Similarity(a, b); got != want {
					t.Fatalf("replayed s(%d,%d) = %v, leader %v", a, b, got, want)
				}
			}
		}

		// The log without record d fails at record d+1.
		if len(recs) < 2 {
			return
		}
		d := drop % (len(recs) - 1)
		gw, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close() //simrank:errok test cleanup on a SyncNone log
		for i := range recs {
			if i == d {
				continue
			}
			if err := gw.Append(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		_, err = fresh().ReplayWAL(context.Background(), gw)
		if err != nil && strings.Contains(err.Error(), fmt.Sprintf("at epoch %d (", recs[d+1].Epoch)) {
			return
		}
		var before uint64 // the epoch record d started from
		if d > 0 {
			before = recs[d-1].Epoch
		}
		next := recs[d+1]
		if next.Kind == wal.KindBatch && next.Epoch-recs[d].Epoch == 1 &&
			uint64(len(next.Updates)) == recs[d].Epoch-before+1 {
			return // the crossover-flip shape the epoch check cannot see
		}
		t.Fatalf("replay without record %d (epoch %d) returned %v; want a refusal of the %s record at epoch %d",
			d, recs[d].Epoch, err, next.Kind, next.Epoch)
	})
}
