package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	simrank "repro"
	"repro/internal/metrics"
	"repro/internal/server"
)

// exactTol bounds |served − oracle| on the exact backends: C^(K+1),
// the truncation error of the K-term series itself, so a larger gap is
// more than truncation can explain. The incremental updates and the
// series round, and truncate, differently. The gap is usually near
// 1e-12, but some updates open it by far more: an engine replaying an
// ingest stream in-process, with no server or cache involved, drifted
// 1e-6 from the oracle within 40k writes, and served runs reached
// 1.6e-5. A lost write or a stale cached row moves the scores near the
// written edge, whose endpoints the check probes, by 1e-3 or more.
var exactTol = math.Pow(dampC, iterK+1)

// checkResult is the untimed answer check after a run.
type checkResult struct {
	Probes     int     `json:"probes"`
	Mismatches int     `json:"mismatches"`
	MaxAbsErr  float64 `json:"max_abs_err"`
	Tolerance  float64 `json:"tolerance"`
	First      string  `json:"first_mismatch,omitempty"`
}

func (r *checkResult) fail(err error) {
	r.Mismatches++
	if r.First == "" {
		r.First = err.Error()
	}
}

// checkRows picks the rows to probe: the hottest /topkfor rows, the
// endpoints of edges the run inserted, and a few uniform ones.
func checkRows(w workload, seed int64, streams []*stream) []int {
	rng := rand.New(rand.NewSource(seed ^ 0xc0ffee))
	seen := map[int]bool{}
	var rows []int
	add := func(v int) {
		if !seen[v] {
			seen[v] = true
			rows = append(rows, v)
		}
	}
	for _, v := range streams[0].hot[:4] {
		add(v)
	}
	for _, s := range streams {
		for _, e := range s.live[:min(2, len(s.live))] {
			add(e.From)
			add(e.To)
		}
	}
	for range 4 {
		add(rng.Intn(w.n))
	}
	return rows
}

// checkAnswers compares /topkfor and /similarity on sample rows with an
// in-process oracle over the final graph: the single-source series on
// the exact backends, and a freshly built engine with the same walk seed
// on approx, which must answer bit-identically.
func checkAnswers(w workload, url string, seed int64, streams []*stream) (checkResult, error) {
	edges := finalEdges(streams)
	res := checkResult{Tolerance: exactTol}
	var fresh *simrank.Engine
	if w.backend == "approx" {
		res.Tolerance = 0
		var err error
		fresh, err = simrank.NewEngine(w.n, edges, simrank.Options{
			C: dampC, K: iterK, Backend: simrank.BackendApprox, ApproxWalks: approxW, ApproxSeed: approxSd,
		})
		if err != nil {
			return res, err
		}
		defer fresh.Close()
	}
	rng := rand.New(rand.NewSource(seed ^ 0xbadc0de))
	for _, q := range checkRows(w, seed, streams) {
		var top server.TopKResponse
		res.Probes++
		if err := getJSON(fmt.Sprintf("%s/topkfor?node=%d&k=%d", url, q, topK), &top); err != nil {
			res.fail(err)
			continue
		}
		targets := []int{rng.Intn(w.n), rng.Intn(w.n)}
		if len(top.Pairs) > 0 {
			targets = append(targets, top.Pairs[0].B)
		}
		var oracle []float64
		if fresh == nil {
			var err error
			if oracle, err = simrank.SingleSourceScores(w.n, edges, q, simrank.Options{C: dampC, K: iterK}); err != nil {
				return res, err
			}
			e, err := compareTopK(top.Pairs, oracle, q, topK, exactTol)
			res.MaxAbsErr = math.Max(res.MaxAbsErr, e)
			if err != nil {
				res.fail(fmt.Errorf("topkfor node %d: %w", q, err))
			}
		} else if err := sameTopK(top.Pairs, fresh.TopKFor(q, topK)); err != nil {
			res.fail(fmt.Errorf("topkfor node %d: %w", q, err))
		}
		for _, b := range targets {
			var sim server.SimilarityResponse
			res.Probes++
			if err := getJSON(fmt.Sprintf("%s/similarity?a=%d&b=%d", url, q, b), &sim); err != nil {
				res.fail(err)
				continue
			}
			var err error
			if fresh == nil {
				d := math.Abs(sim.Score - oracle[b])
				res.MaxAbsErr = math.Max(res.MaxAbsErr, d)
				if d > exactTol {
					err = fmt.Errorf("score %v, oracle %v", sim.Score, oracle[b])
				}
			} else if s, se := fresh.SimilarityStderr(q, b); s != sim.Score || se != sim.Stderr {
				err = fmt.Errorf("score %v±%v, fresh engine %v±%v", sim.Score, sim.Stderr, s, se)
			}
			if err != nil {
				res.fail(fmt.Errorf("similarity %d,%d: %w", q, b, err))
			}
		}
	}
	return res, nil
}

// compareTopK checks a served top-k row against the oracle row: every
// served score must match the oracle's score for its node, and the i-th
// served score the oracle's i-th best. Entries only one list has must be
// zero within tol (an incremental store may keep a residue the series
// has as an exact zero). It returns the largest difference seen.
func compareTopK(got []server.PairJSON, oracle []float64, q, k int, tol float64) (float64, error) {
	want := metrics.TopKRow(oracle, q, k)
	var maxErr float64
	for i := range max(len(got), len(want)) {
		var g, w float64
		if i < len(got) {
			p := got[i]
			if p.A != q || p.B < 0 || p.B >= len(oracle) {
				return maxErr, fmt.Errorf("pair %d is (%d,%d), not in row %d", i, p.A, p.B, q)
			}
			g = p.Score
			d := math.Abs(g - oracle[p.B])
			maxErr = math.Max(maxErr, d)
			if d > tol {
				return maxErr, fmt.Errorf("node %d scores %v, oracle %v", p.B, g, oracle[p.B])
			}
		}
		if i < len(want) {
			w = want[i].Score
		}
		d := math.Abs(g - w)
		maxErr = math.Max(maxErr, d)
		if d > tol {
			return maxErr, fmt.Errorf("rank %d scores %v, oracle's rank %d scores %v", i, g, i, w)
		}
	}
	return maxErr, nil
}

// sameTopK requires a served top-k row to equal the reference bit for
// bit.
func sameTopK(got []server.PairJSON, want []simrank.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, fresh engine %d", len(got), len(want))
	}
	for i, p := range got {
		if w := want[i]; p.A != w.A || p.B != w.B || p.Score != w.Score {
			return fmt.Errorf("rank %d is (%d,%d,%v), fresh engine (%d,%d,%v)", i, p.A, p.B, p.Score, w.A, w.B, w.Score)
		}
	}
	return nil
}

func getJSON(url string, v any) error {
	resp, err := probeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
