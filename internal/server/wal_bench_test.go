package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	simrank "repro"
	"repro/internal/wal"
)

// BenchmarkWALWaitAck measures the full ?wait=1 acknowledgement latency
// — HTTP in, pipeline, commit, WAL append, fsync per policy, HTTP out —
// the end-to-end price of "your write is durable". Reports mean ns/op
// plus sampled p50/p99 as custom metrics: always pays one fsync per
// ack, interval amortizes it into the group-commit Sync, none skips
// durability entirely and is the no-WAL pipeline baseline plus one
// buffered write.
func BenchmarkWALWaitAck(b *testing.B) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNone} {
		b.Run("sync="+policy.String(), func(b *testing.B) {
			w, err := wal.Open(b.TempDir(), wal.Options{Sync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			eng, err := simrank.NewConcurrentEngine(16, []simrank.Edge{{From: 0, To: 1}, {From: 1, To: 2}}, simrank.Options{K: 8})
			if err != nil {
				b.Fatal(err)
			}
			eng.SetWAL(w)
			srv := New(eng, Config{WAL: w})
			ts := httptest.NewServer(srv)
			defer func() {
				ts.Close()
				srv.Close()
			}()

			client := ts.Client()
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate insert/delete of one edge: every request is a
				// valid single-update commit, indefinitely.
				op := "insert"
				if i%2 == 1 {
					op = "delete"
				}
				body := fmt.Sprintf(`{"from":3,"to":4,"op":%q}`, op)
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/updates?wait=1", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				lat = append(lat, time.Since(t0))
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("ack status %d", resp.StatusCode)
				}
			}
			b.StopTimer()
			if len(lat) > 0 {
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				p := func(q float64) float64 {
					return float64(lat[int(q*float64(len(lat)-1))].Nanoseconds())
				}
				b.ReportMetric(p(0.50), "p50-ack-ns")
				b.ReportMetric(p(0.99), "p99-ack-ns")
			}
		})
	}
}
