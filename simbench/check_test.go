package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	simrank "repro"
	"repro/internal/server"
)

// servedAfterStream boots an in-process server on w and applies a
// stretch of its op streams, returning the test server and the streams
// the answer check reads the final graph from. perturb rewrites each
// response body.
func servedAfterStream(t *testing.T, w workload, perturb func(path string, body []byte) []byte) (*httptest.Server, []*stream) {
	t.Helper()
	const seed = 5
	base := baseGraph(w)
	eng, err := simrank.NewConcurrentEngine(w.n, base.Edges(), simrank.Options{
		Backend: simrank.Backend(w.backend), ApproxWalks: approxW, ApproxSeed: approxSd,
	})
	if err != nil {
		t.Fatal(err)
	}
	streams := newStreams(w, seed, base)
	for range 200 {
		for _, s := range streams {
			if o := s.next(); o.write() {
				if err := eng.ApplyBatch([]simrank.Update{o.update()}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	srv := server.New(eng, server.Config{})
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		rw.WriteHeader(rec.Code)
		rw.Write(perturb(req.URL.Path, rec.Body.Bytes()))
	}))
	t.Cleanup(ts.Close)
	return ts, streams
}

func unchanged(_ string, body []byte) []byte { return body }

// nudge returns a perturbation that moves the first score an endpoint
// serves by delta.
func nudge(endpoint string, delta func(float64) float64) func(string, []byte) []byte {
	return func(path string, body []byte) []byte {
		if path != endpoint {
			return body
		}
		var out any
		switch endpoint {
		case "/similarity":
			var r server.SimilarityResponse
			json.Unmarshal(body, &r)
			r.Score = delta(r.Score)
			out = r
		default:
			var r server.TopKResponse
			json.Unmarshal(body, &r)
			if len(r.Pairs) > 0 {
				r.Pairs[0].Score = delta(r.Pairs[0].Score)
			}
			out = r
		}
		b, _ := json.Marshal(out)
		return b
	}
}

func TestAnswerCheckPassesAndCatchesPerturbation(t *testing.T) {
	for _, name := range []string{"ingest", "read_mostly", "logged"} {
		w, _ := findWorkload(name)
		w.n = 300
		// An exact store may drift from the oracle by less than exactTol;
		// the approx store must match a fresh engine bit for bit, so one
		// ulp is already wrong.
		delta := func(x float64) float64 { return x + 1e-3 }
		if w.backend == "approx" {
			delta = func(x float64) float64 { return math.Nextafter(x, 2) }
		}
		for _, tc := range []struct {
			name    string
			perturb func(string, []byte) []byte
			wantBad bool
		}{
			{"served as is", unchanged, false},
			{"similarity perturbed", nudge("/similarity", delta), true},
			{"topkfor perturbed", nudge("/topkfor", delta), true},
		} {
			ts, streams := servedAfterStream(t, w, tc.perturb)
			res, err := checkAnswers(w, ts.URL, 5, streams)
			if err != nil {
				t.Fatal(err)
			}
			if bad := res.Mismatches > 0; bad != tc.wantBad {
				t.Errorf("%s, %s: %d mismatches of %d probes (first: %q)", name, tc.name, res.Mismatches, res.Probes, res.First)
			}
		}
	}
}

func TestCompareTopKZeroResidue(t *testing.T) {
	oracle := []float64{0.4, 0.2, 0, 0.1}
	got := []server.PairJSON{{A: 0, B: 1, Score: 0.2}, {A: 0, B: 3, Score: 0.1}, {A: 0, B: 2, Score: 1e-15}}
	if _, err := compareTopK(got, oracle, 0, 10, 1e-9); err != nil {
		t.Errorf("a residue below tolerance failed the check: %v", err)
	}
	got[2].Score = 1e-6
	if _, err := compareTopK(got, oracle, 0, 10, 1e-9); err == nil || !strings.Contains(err.Error(), "node 2") {
		t.Errorf("a score the oracle has as zero passed: %v", err)
	}
}
