package wal

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkWALAppend measures raw append throughput per fsync policy —
// the cost one committed drain cycle pays for durability. SyncAlways is
// bounded by the device's fsync latency (this is the price of
// ack-equals-durable); SyncInterval and SyncNone show the logging cost
// itself, which must stay negligible next to an update's O(n·K) kernel
// work.
func BenchmarkWALAppend(b *testing.B) {
	// One coalesced batch of 8 updates per record — a realistic drain
	// cycle under burst load.
	ups := make([]graph.Update, 8)
	for i := range ups {
		ups[i] = graph.Update{Edge: graph.Edge{From: i, To: i + 1}, Insert: true}
	}
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		b.Run("sync="+policy.String(), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{Sync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := Record{Epoch: uint64(i + 1), Kind: KindBatch, Updates: ups}
				if err := w.Append(&rec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := w.Stats()
			if st.Appends > 0 {
				b.ReportMetric(float64(st.Bytes)/float64(st.Appends), "bytes/record")
			}
		})
	}
}

// BenchmarkWALReplay measures recovery speed: how fast a boot streams
// an on-disk log back through the decode path (the apply cost is the
// engine's, not the log's, so fn is a no-op here).
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	w, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	ups := make([]graph.Update, 8)
	for i := range ups {
		ups[i] = graph.Update{Edge: graph.Edge{From: i, To: i + 1}, Insert: true}
	}
	const records = 4096
	for i := 0; i < records; i++ {
		if err := w.Append(&Record{Epoch: uint64(i + 1), Kind: KindBatch, Updates: ups}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		seen := 0
		if err := r.Replay(0, func(*Record) error { seen++; return nil }); err != nil {
			b.Fatal(err)
		}
		if seen != records {
			b.Fatalf("replayed %d records, want %d", seen, records)
		}
		r.Close()
	}
}
