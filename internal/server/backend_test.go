package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	simrank "repro"
	"repro/internal/gen"
)

// newBackendServer builds a server over an engine with the given
// backend on a small co-citation graph (non-trivial similarities).
func newBackendServer(t *testing.T, backend simrank.Backend) (*simrank.ConcurrentEngine, *httptest.Server) {
	t.Helper()
	const n = 12
	var edges []simrank.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, simrank.Edge{From: i, To: (i + 1) % n})
		edges = append(edges, simrank.Edge{From: i, To: (i + 5) % n})
	}
	eng, err := simrank.NewConcurrentEngine(n, edges, simrank.Options{Backend: backend, ApproxWalks: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return eng, ts
}

// waitForEpoch polls /readyz until the published epoch reaches want —
// how tests observe the async update pipeline draining.
func waitForEpoch(t *testing.T, baseURL string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var rr ReadyResponse
		getJSON(t, baseURL+"/readyz", &rr)
		if rr.Epoch >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch stuck at %d, want %d", rr.Epoch, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Every backend must surface its identity and memory footprint through
// /stats, and the packed store must come in at roughly half the dense
// bytes for the same graph.
func TestServerStatsReportsBackend(t *testing.T) {
	bytesOf := map[simrank.Backend]int64{}
	for _, backend := range []simrank.Backend{simrank.BackendDense, simrank.BackendPacked, simrank.BackendApprox} {
		t.Run(string(backend), func(t *testing.T) {
			_, ts := newBackendServer(t, backend)
			var st StatsResponse
			if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
				t.Fatalf("/stats = %d", code)
			}
			if st.Backend != string(backend) {
				t.Fatalf("/stats backend %q, want %q", st.Backend, backend)
			}
			if st.StoreBytes <= 0 {
				t.Fatalf("/stats store_bytes = %d, want positive", st.StoreBytes)
			}
			bytesOf[backend] = st.StoreBytes
		})
	}
	// At this tiny n the packed store's O(n) offset/scratch overhead is
	// visible, so the check here is only ordering; the ≤ 55% acceptance
	// bar at n = 2000 lives in the root suite's store-bytes test.
	if d, p := bytesOf[simrank.BackendDense], bytesOf[simrank.BackendPacked]; d > 0 && p >= d {
		t.Fatalf("packed store_bytes %d not below dense %d", p, d)
	}
}

// The exact backends serve identical query surfaces: both hold the same
// exactly symmetric S, so a dense and a packed server fed one update
// stream answer every query with the same bytes — /similarity for every
// pair, /topkfor for every node, and the whole /topk.
func TestServerPackedServesQueries(t *testing.T) {
	const n = 64
	g := gen.PrefAttach(n, 3, 5)
	var dense, packed string
	for _, backend := range []simrank.Backend{simrank.BackendDense, simrank.BackendPacked} {
		eng, err := simrank.NewConcurrentEngine(n, g.Edges(), simrank.Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(eng, Config{})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		if backend == simrank.BackendDense {
			dense = ts.URL
		} else {
			packed = ts.URL
		}
	}
	// One toggle stream, acked on both servers: each step deletes a
	// present edge or inserts an absent one.
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 32; step++ {
		from, to := rng.Intn(n), rng.Intn(n)
		up := UpdateJSON{From: from, To: to}
		if g.HasEdge(from, to) {
			up.Op = "delete"
		}
		g.Apply(simrank.Update{Edge: simrank.Edge{From: from, To: to}, Insert: up.Op == ""})
		for _, base := range []string{dense, packed} {
			if code := postJSON(t, base+"/updates?wait=1", up, nil); code != 200 {
				t.Fatalf("step %d: POST %+v = %d", step, up, code)
			}
		}
	}
	body := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d %s", url, resp.StatusCode, b)
		}
		return b
	}
	same := func(path string) {
		t.Helper()
		if d, p := body(dense+path), body(packed+path); !bytes.Equal(d, p) {
			t.Fatalf("%s:\n dense  %s\n packed %s", path, d, p)
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			same(fmt.Sprintf("/similarity?a=%d&b=%d", a, b))
		}
		same(fmt.Sprintf("/topkfor?node=%d&k=%d", a, n))
	}
	same(fmt.Sprintf("/topk?k=%d", n*(n-1)/2))
}

// The approx tier serves the full read surface — /similarity with a
// populated stderr, /topkfor, /stats, /healthz — AND the full write
// surface: POST /updates repairs the walk index incrementally, POST
// /nodes grows it, and /stats reports the repair telemetry. Only the
// global /topk, which would demand the n²/2 scan the tier exists to
// avoid, still answers 501.
func TestServerApproxWritable(t *testing.T) {
	eng, ts := newBackendServer(t, simrank.BackendApprox)

	var sim SimilarityResponse
	if code := getJSON(t, ts.URL+"/similarity?a=0&b=3", &sim); code != 200 {
		t.Fatalf("/similarity = %d", code)
	}
	if sim.Stderr < 0 {
		t.Fatalf("negative stderr %v", sim.Stderr)
	}
	var tk TopKResponse
	if code := getJSON(t, ts.URL+"/topkfor?node=2&k=5", &tk); code != 200 {
		t.Fatalf("/topkfor = %d", code)
	}
	if len(tk.Pairs) == 0 {
		t.Fatal("/topkfor returned no pairs on a co-citation ring")
	}
	if code := getJSON(t, ts.URL+"/topk?k=5", nil); code != 501 {
		t.Fatalf("/topk on approx = %d, want 501", code)
	}

	// Synchronous write: applied before the response, epoch committed.
	var ur UpdateResponse
	if code := postJSON(t, ts.URL+"/updates?wait=1", UpdateJSON{From: 0, To: 2}, &ur); code != 200 {
		t.Fatalf("POST /updates?wait=1 on approx = %d, want 200", code)
	}
	if ur.Applied != 1 {
		t.Fatalf("applied %d updates, want 1", ur.Applied)
	}
	// Asynchronous write: accepted and drained by the apply loop.
	if code := postJSON(t, ts.URL+"/updates", UpdateJSON{From: 0, To: 2, Op: "delete"}, nil); code != 202 {
		t.Fatalf("POST /updates on approx = %d, want 202", code)
	}
	var nr NodesResponse
	if code := postJSON(t, ts.URL+"/nodes", NodesRequest{Count: 2}, &nr); code != 200 {
		t.Fatalf("POST /nodes on approx = %d, want 200", code)
	}
	if nr.First != 12 || nr.Nodes != 14 {
		t.Fatalf("POST /nodes = %+v, want first 12, nodes 14", nr)
	}
	if n, _ := eng.Size(); n != 14 {
		t.Fatalf("engine did not grow: %d nodes", n)
	}
	// A duplicate insert is still a clean 409 — bad update, not read-only.
	if code := postJSON(t, ts.URL+"/updates?wait=1", UpdateJSON{From: 0, To: 1}, nil); code != 409 {
		t.Fatalf("duplicate insert = %d, want 409", code)
	}

	// Repair telemetry flows through /stats once the async write drains.
	waitForEpoch(t, ts.URL, 3)
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.UpdatesApplied != 2 {
		t.Fatalf("stats report %d updates applied, want 2", st.UpdatesApplied)
	}
	if st.WalksRepaired == 0 {
		t.Fatal("stats report zero walks repaired after two repairs")
	}
	if st.WalkResampleFraction <= 0 || st.WalkResampleFraction > 1 {
		t.Fatalf("walk_resample_fraction %v outside (0,1]", st.WalkResampleFraction)
	}
}

// The acceptance workload: an n = 100,000 graph — whose dense matrix
// would be 8·10¹⁰ bytes, far past any sane budget — boots on the approx
// backend in O(n·(W·L+d)) memory and serves /topkfor end to end over
// HTTP. The stored-walk index (walk rows plus repair postings) costs
// real bytes the old transient estimator didn't, so the bar here is
// "hundreds of times below dense", not thousands.
func TestServerApprox100kTopKFor(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node boot in -short mode")
	}
	const n = 100_000
	rng := rand.New(rand.NewSource(9))
	edges := make([]simrank.Edge, 0, 3*n)
	// A ring guarantees every node an in-neighbor; random chords give the
	// walks something to coalesce on.
	for i := 0; i < n; i++ {
		edges = append(edges, simrank.Edge{From: i, To: (i + 1) % n})
	}
	for len(edges) < 3*n {
		edges = append(edges, simrank.Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}
	eng, err := simrank.NewConcurrentEngine(n, edges, simrank.Options{Backend: simrank.BackendApprox, ApproxWalks: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	denseBytes := int64(n) * int64(n) * 8
	if st.StoreBytes >= denseBytes/500 {
		t.Fatalf("approx store %d bytes is not far below the %d-byte dense matrix", st.StoreBytes, denseBytes)
	}
	var tk TopKResponse
	if code := getJSON(t, ts.URL+"/topkfor?node=42&k=10", &tk); code != 200 {
		t.Fatalf("/topkfor = %d", code)
	}
	if len(tk.Pairs) == 0 || len(tk.Pairs) > 10 {
		t.Fatalf("/topkfor returned %d pairs", len(tk.Pairs))
	}
	for _, p := range tk.Pairs {
		if p.A != 42 || p.Score <= 0 {
			t.Fatalf("implausible pair %+v", p)
		}
	}
}
