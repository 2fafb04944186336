package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	simrank "repro"
	"repro/internal/matrix"
)

// newTestServer builds a server (and its engine) over a ring graph of n
// nodes (plus any extra edges), returning both plus the httptest
// listener. A bare directed ring has every off-diagonal similarity
// exactly zero — tests that need non-trivial scores add co-citations.
func newTestServer(t *testing.T, n int, cfg Config, extra ...simrank.Edge) (*Server, *simrank.ConcurrentEngine, *httptest.Server) {
	t.Helper()
	return newTestServerOpts(t, n, simrank.Options{}, cfg, extra...)
}

// newTestServerOpts is newTestServer over an engine built with opts.
func newTestServerOpts(t *testing.T, n int, opts simrank.Options, cfg Config, extra ...simrank.Edge) (*Server, *simrank.ConcurrentEngine, *httptest.Server) {
	t.Helper()
	edges := make([]simrank.Edge, n, n+len(extra))
	for i := 0; i < n; i++ {
		edges[i] = simrank.Edge{From: i, To: (i + 1) % n}
	}
	edges = append(edges, extra...)
	eng, err := simrank.NewConcurrentEngine(n, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, eng, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func TestServerQueryEndpoints(t *testing.T) {
	// Co-citations 0→3 and 0→5 give node 1 (cited by 0) non-zero
	// similarity to nodes 3 and 5, so topkfor has something to return.
	_, eng, ts := newTestServer(t, 6, Config{},
		simrank.Edge{From: 0, To: 3}, simrank.Edge{From: 0, To: 5})

	var sim SimilarityResponse
	if code := getJSON(t, ts.URL+"/similarity?a=0&b=2", &sim); code != http.StatusOK {
		t.Fatalf("similarity status %d", code)
	}
	if want := eng.Similarity(0, 2); sim.Score != want {
		t.Fatalf("similarity = %v, want %v", sim.Score, want)
	}

	var topk TopKResponse
	if code := getJSON(t, ts.URL+"/topk?k=3", &topk); code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}
	want := eng.TopK(3)
	if len(topk.Pairs) != len(want) {
		t.Fatalf("topk returned %d pairs, want %d", len(topk.Pairs), len(want))
	}
	for i, p := range want {
		if topk.Pairs[i] != (PairJSON{A: p.A, B: p.B, Score: p.Score}) {
			t.Fatalf("topk pair %d = %+v, want %+v", i, topk.Pairs[i], p)
		}
	}

	var fork TopKResponse
	if code := getJSON(t, ts.URL+"/topkfor?node=1&k=2", &fork); code != http.StatusOK {
		t.Fatalf("topkfor status %d", code)
	}
	if len(fork.Pairs) != 2 {
		t.Fatalf("topkfor returned %d pairs", len(fork.Pairs))
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Nodes != 6 || st.Edges != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}

	// Parameter validation.
	for _, url := range []string{
		"/similarity?a=0", "/similarity?a=0&b=99", "/similarity?a=x&b=1",
		"/topk?k=0", "/topkfor?node=99", "/topkfor?node=0&k=-1",
	} {
		if code := getJSON(t, ts.URL+url, nil); code != http.StatusBadRequest {
			t.Fatalf("GET %s status %d, want 400", url, code)
		}
	}
	// Wrong method.
	if code := postJSON(t, ts.URL+"/topk", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /topk status %d, want 405", code)
	}
}

// TestServerSyncWriteObservesOwnUpdate: a ?wait=1 write answers 200 only
// after its batch commits, so an immediately following read must see it.
func TestServerSyncWriteObservesOwnUpdate(t *testing.T) {
	_, _, ts := newTestServer(t, 6, Config{})

	var before SimilarityResponse
	getJSON(t, ts.URL+"/similarity?a=3&b=5", &before)

	// Make 3 and 5 co-cited by 0, so s(3,5) must strictly rise.
	batch := []UpdateJSON{{From: 0, To: 3}, {From: 0, To: 5}}
	var ur UpdateResponse
	if code := postJSON(t, ts.URL+"/updates?wait=1", batch, &ur); code != http.StatusOK {
		t.Fatalf("sync write status %d", code)
	}
	if ur.Applied != 2 {
		t.Fatalf("applied = %d, want 2", ur.Applied)
	}
	var after SimilarityResponse
	getJSON(t, ts.URL+"/similarity?a=3&b=5", &after)
	if after.Score <= before.Score {
		t.Fatalf("sync write not observed: s(3,5) %v → %v", before.Score, after.Score)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Edges != 8 {
		t.Fatalf("edges = %d, want 8", st.Edges)
	}
	if st.UpdatesApplied != 2 || st.UpdatesRejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServerCoalescingBurst is the acceptance check: a burst of N
// single-update POSTs must commit in FEWER than N ApplyBatch calls, and
// none may be lost. The final ?wait=1 write is the barrier: the queue is
// FIFO, so when it commits everything enqueued before it has committed.
func TestServerCoalescingBurst(t *testing.T) {
	const n, burst = 40, 120
	// The 10ms batching window guarantees bursts coalesce even when the
	// engine could keep up with the posters.
	_, _, ts := newTestServer(t, n, Config{BatchWindow: 10 * time.Millisecond})

	// Distinct, always-applicable inserts: chords (i, i+2) and (i, i+3).
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < burst; i += 8 {
				from := i % n
				to := (i + 2 + i/n) % n
				b, _ := json.Marshal(UpdateJSON{From: from, To: to})
				resp, err := http.Post(ts.URL+"/updates", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("burst write %d: status %d", i, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Barrier write: everything above committed once this returns.
	if code := postJSON(t, ts.URL+"/updates?wait=1", UpdateJSON{From: 0, To: n/2 + 1}, nil); code != http.StatusOK {
		t.Fatalf("barrier write status %d", code)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.UpdatesApplied != burst+1 || st.UpdatesRejected != 0 {
		t.Fatalf("lost writes: %+v", st)
	}
	if st.Batches >= burst+1 {
		t.Fatalf("no coalescing: %d updates took %d batches", st.UpdatesApplied, st.Batches)
	}
	if st.Edges != n+burst+1 {
		t.Fatalf("edges = %d, want %d", st.Edges, n+burst+1)
	}
	t.Logf("coalescing: %d updates in %d batches (max batch %d)", st.UpdatesApplied, st.Batches, st.MaxBatch)
}

// TestServerConcurrentReadersAndWriters hammers queries while a writer
// stream commits, under -race: correctness is "no data race, no 5xx, and
// a consistent final state".
func TestServerConcurrentReadersAndWriters(t *testing.T) {
	const n = 24
	_, _, ts := newTestServer(t, n, Config{})

	var readers, writers sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			urls := []string{
				fmt.Sprintf("%s/similarity?a=%d&b=%d", ts.URL, r, (r+3)%n),
				ts.URL + "/topk?k=5",
				fmt.Sprintf("%s/topkfor?node=%d&k=4", ts.URL, r),
				ts.URL + "/stats",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(urls[i%len(urls)])
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					errs <- fmt.Errorf("reader got %d", resp.StatusCode)
					return
				}
			}
		}(r)
	}
	// Writer stream: insert chords then delete them again, all sync.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 30; i++ {
				from := (w*n/2 + i) % n
				to := (from + 5) % n
				ins, _ := json.Marshal(UpdateJSON{From: from, To: to})
				del, _ := json.Marshal(UpdateJSON{From: from, To: to, Op: "delete"})
				url := ts.URL + "/updates?wait=1"
				for _, body := range [][]byte{ins, del} {
					resp, err := http.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					// 409 is legal (the two writers may collide on an
					// edge); 5xx is not.
					if resp.StatusCode >= 500 {
						errs <- fmt.Errorf("writer got %d", resp.StatusCode)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	// Every insert is paired with its delete in program order per writer,
	// so the graph must end exactly where it started.
	if st.Edges != n {
		t.Fatalf("edges = %d after balanced stream, want %d", st.Edges, n)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after quiesce", st.QueueDepth)
	}
}

// TestServerNodesEndpoint grows the graph and then writes against the
// new ids.
func TestServerNodesEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, 4, Config{})
	var nr NodesResponse
	if code := postJSON(t, ts.URL+"/nodes", NodesRequest{Count: 2}, &nr); code != http.StatusOK {
		t.Fatalf("nodes status %d", code)
	}
	if nr.First != 4 || nr.Nodes != 6 {
		t.Fatalf("nodes response %+v", nr)
	}
	if code := postJSON(t, ts.URL+"/updates?wait=1", UpdateJSON{From: 5, To: 0}, nil); code != http.StatusOK {
		t.Fatalf("write to new node status %d", code)
	}
	if code := postJSON(t, ts.URL+"/nodes", NodesRequest{Count: 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("count=0 status %d, want 400", code)
	}
}

// TestServerResourceBounds: a single request must not be able to demand
// unbounded memory, neither via a huge top-k nor via a huge node count.
func TestServerResourceBounds(t *testing.T) {
	_, _, ts := newTestServer(t, 6, Config{MaxNodes: 64})
	var topk TopKResponse
	if code := getJSON(t, ts.URL+"/topk?k=2000000000", &topk); code != http.StatusOK {
		t.Fatalf("huge-k topk status %d, want 200 (clamped)", code)
	}
	if len(topk.Pairs) > 15 { // 6·5/2 possible pairs
		t.Fatalf("clamped topk returned %d pairs", len(topk.Pairs))
	}
	if code := getJSON(t, ts.URL+"/topkfor?node=0&k=2000000000", nil); code != http.StatusOK {
		t.Fatalf("huge-k topkfor status %d, want 200 (clamped)", code)
	}
	if code := postJSON(t, ts.URL+"/nodes", NodesRequest{Count: 1 << 30}, nil); code != http.StatusBadRequest {
		t.Fatalf("huge node count status %d, want 400", code)
	}
	// Growth up to the limit still works.
	if code := postJSON(t, ts.URL+"/nodes", NodesRequest{Count: 58}, nil); code != http.StatusOK {
		t.Fatalf("in-bounds growth status %d, want 200", code)
	}
	if code := postJSON(t, ts.URL+"/nodes", NodesRequest{Count: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("growth past limit status %d, want 400", code)
	}
}

// TestServerRejectsBadWrites covers the write-path error surface.
func TestServerRejectsBadWrites(t *testing.T) {
	_, _, ts := newTestServer(t, 4, Config{})
	// Insert of an existing ring edge → 409 in wait mode.
	if code := postJSON(t, ts.URL+"/updates?wait=1", UpdateJSON{From: 0, To: 1}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate insert status %d, want 409", code)
	}
	// Delete of an absent edge → 409.
	if code := postJSON(t, ts.URL+"/updates?wait=1", UpdateJSON{From: 0, To: 3, Op: "delete"}, nil); code != http.StatusConflict {
		t.Fatalf("absent delete status %d, want 409", code)
	}
	// Unknown op / malformed JSON / empty batch → 400.
	if code := postJSON(t, ts.URL+"/updates", UpdateJSON{From: 0, To: 2, Op: "upsert"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad op status %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/updates", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d, want 400", resp.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/updates", []UpdateJSON{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", code)
	}
	// Bodies with no explicit from/to must not become "insert 0→0".
	for _, body := range []string{"null", "{}", `{"op":"insert"}`, `[{"from":1},null]`} {
		resp, err := http.Post(ts.URL+"/updates", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q status %d, want 400", body, resp.StatusCode)
		}
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.UpdatesApplied != 0 || st.UpdatesRejected != 2 {
		t.Fatalf("stats after rejected writes: %+v", st)
	}
}

// TestServerShutdownSnapshotRestore is the kill-with-snapshot acceptance
// path: accepted fire-and-forget writes survive a graceful shutdown, and
// a server restored from the final snapshot answers an identical TopK.
func TestServerShutdownSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "state.simr")
	srv, eng, ts := newTestServer(t, 10, Config{SnapshotPath: snap})

	// Fire-and-forget writes (202) that shutdown must not drop.
	for i := 0; i < 6; i++ {
		if code := postJSON(t, ts.URL+"/updates", UpdateJSON{From: i, To: (i + 4) % 10}, nil); code != http.StatusAccepted {
			t.Fatalf("write %d status %d", i, code)
		}
	}
	// Graceful shutdown: listener first, then drain + final snapshot.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := simrank.ReadSnapshotFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.M() != eng.M() || restored.N() != eng.N() {
		t.Fatalf("restored graph %d/%d, live %d/%d", restored.N(), restored.M(), eng.N(), eng.M())
	}
	if d := matrix.MaxAbsDiff(restored.Similarities(), eng.Similarities()); d != 0 {
		t.Fatalf("restored similarities differ by %g, want bit-identical", d)
	}
	// A new server over the restored engine answers identical TopK.
	ts2 := httptest.NewServer(New(simrank.WrapEngine(restored), Config{}))
	defer ts2.Close()
	var got TopKResponse
	getJSON(t, ts2.URL+"/topk?k=10", &got)
	for i, p := range eng.TopK(10) {
		if got.Pairs[i] != (PairJSON{A: p.A, B: p.B, Score: p.Score}) {
			t.Fatalf("restored topk[%d] = %+v, want %+v", i, got.Pairs[i], p)
		}
	}
	// The closed server rejects new writes instead of dropping them.
	if _, err := srv.pipe.submit([]simrank.Update{up(0, 9)}, false); err == nil {
		t.Fatal("want error submitting after Close")
	}
}

// TestServerSnapshotEndpoint persists on demand and refuses when no path
// is configured.
func TestServerSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "ondemand.simr")
	_, eng, ts := newTestServer(t, 6, Config{SnapshotPath: snap})

	if code := postJSON(t, ts.URL+"/updates?wait=1", UpdateJSON{From: 0, To: 2}, nil); code != http.StatusOK {
		t.Fatalf("write status %d", code)
	}
	var sr SnapshotResponse
	if code := postJSON(t, ts.URL+"/snapshot", nil, &sr); code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}
	restored, err := simrank.ReadSnapshotFile(sr.Path)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(restored.Similarities(), eng.Similarities()); d != 0 {
		t.Fatalf("on-demand snapshot differs by %g", d)
	}

	_, _, ts2 := newTestServer(t, 4, Config{})
	if code := postJSON(t, ts2.URL+"/snapshot", nil, nil); code != http.StatusConflict {
		t.Fatalf("unconfigured snapshot status %d, want 409", code)
	}
}

// TestServerTopKCacheCounters: with the query cache enabled, repeat
// /topkfor traffic is served without rescanning similarity rows — the
// cache_row_misses counter in /stats holds still while hits advance —
// and a committed write invalidates exactly the dirty rows.
func TestServerTopKCacheCounters(t *testing.T) {
	_, _, ts := newTestServerOpts(t, 6, simrank.Options{TopKCacheRows: 64}, Config{},
		simrank.Edge{From: 0, To: 3}, simrank.Edge{From: 0, To: 5})

	get := func(url string) {
		t.Helper()
		if code := getJSON(t, ts.URL+url, nil); code != http.StatusOK {
			t.Fatalf("GET %s status %d", url, code)
		}
	}
	stats := func() StatsResponse {
		t.Helper()
		var st StatsResponse
		if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
			t.Fatalf("stats status %d", code)
		}
		return st
	}

	get("/topkfor?node=1&k=2") // cold: one scan
	get("/topkfor?node=1&k=2") // warm ×3: zero scans
	get("/topkfor?node=1&k=1")
	get("/topkfor?node=1&k=2")
	get("/topk?k=3")
	get("/topk?k=3")
	st := stats()
	if st.CacheRowMisses != 1 || st.CacheRowHits != 3 {
		t.Fatalf("row counters %+v; want 1 miss, 3 hits", st)
	}
	if st.CacheGlobalMisses != 1 || st.CacheGlobalHits != 1 {
		t.Fatalf("global counters %+v; want 1 miss, 1 hit", st)
	}
	if st.CachedRows != 1 {
		t.Fatalf("cached_rows = %d, want 1", st.CachedRows)
	}

	// A synchronous write commits before the response; the dirty rows it
	// reports must show up as invalidations and re-miss on next query.
	code := postJSON(t, ts.URL+"/updates?wait=1", UpdateJSON{From: 0, To: 4}, nil)
	if code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	st = stats()
	if st.CacheInvalidatedRows == 0 {
		t.Fatalf("no invalidations after committed write: %+v", st)
	}
	get("/topkfor?node=1&k=2")
	if after := stats(); after.CacheRowMisses != st.CacheRowMisses+1 {
		t.Fatalf("dirty row not rescanned: %+v then %+v", st, after)
	}
}
