package simstore

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/montecarlo"
)

// ApproxView is an immutable walk set with the query parameters that
// read it: what Approx.Seal returns, and the read half every Approx
// writer embeds, whose idx then points at the writer's own index. It has
// no method that writes.
type ApproxView struct {
	idx   *montecarlo.View
	walks int
	seed  int64
	// refineFactor multiplies the walk budget on the provisional top-2k
	// candidates of a TopKRow query.
	refineFactor int
}

// Approx is the sampling tier: no materialized S at all. Queries read a
// stored-walk index (montecarlo.Index) of W truncated reverse walks per
// node — O(n·W·L) memory beside the graph, still far below the exact
// tiers' Θ(n²) — and score a pair by the first-meeting-time estimator, with
// per-answer standard errors through the Sampler interface.
//
// The store is *writable through the graph*: ApplyUpdate applies the
// edge to the graph the walks are drawn over, which changes one
// in-neighbor list, and repairs exactly the walk suffixes the change
// invalidates (the paper's affected-area idea applied to the walk
// index), and AddNodes grows the index by isolated nodes. Because every
// walk position derives from a pure (seed, node, walk, step) hash, the
// repaired index is bit-identical to a fresh rebuild over the updated
// graph — determinism, WAL-replay equivalence and snapshot round-trips
// all reduce to that one invariant.
//
// There is no matrix cell for an Inc-SR delta to land in, so Update
// validates the edge against the graph and repairs walks instead of
// running the incremental core, and the triangle scan UpperRow panics.
//
// Scores are the *iterative-form* SimRank estimates (s(a,a) = 1) the
// estimator targets, truncated at walkLen steps — pick walkLen = K to
// mirror an exact engine's K-iteration truncation.
type Approx struct {
	ApproxView
	// index is the writable walk index; the embedded view reads its View.
	index *montecarlo.Index
}

// DefaultRefineFactor is the top-k refinement multiplier (see
// montecarlo.View.TopK).
const DefaultRefineFactor = 4

// MaxWalks bounds the per-pair walk budget everywhere it is accepted —
// engine options, store construction and snapshot restore share this
// one constant, so a budget a running engine accepts is always a budget
// its snapshot can restore (and it fits a snapshot's uint32 field).
// With stored walks the budget is also the per-node memory multiplier
// (W·(L+1) int32 positions per node), so large budgets are priced in
// RAM, not per-query CPU.
const MaxWalks = 1 << 20

// NewApprox builds a sampling store over g's current topology: c is the
// damping factor, walkLen the walk cap (use the exact engines' K),
// walks the per-pair walk budget, seed the derived-seed root. All W
// walks per node are sampled and stored up front.
func NewApprox(g *graph.DiGraph, c float64, walkLen, walks int, seed int64) (*Approx, error) {
	if walks <= 0 || walks > MaxWalks {
		return nil, fmt.Errorf("simstore: approx walk budget %d outside (0, %d]", walks, MaxWalks)
	}
	ix, err := montecarlo.NewIndex(g, c, walkLen, walks, seed)
	if err != nil {
		return nil, err
	}
	v := ApproxView{idx: &ix.View, walks: walks, seed: seed, refineFactor: DefaultRefineFactor}
	return &Approx{ApproxView: v, index: ix}, nil
}

// Walks returns the per-pair walk budget (persisted in snapshots).
func (a *ApproxView) Walks() int { return a.walks }

// Seed returns the derived-seed root the walks are positioned with
// (persisted in snapshots; a restored store reproduces the exact same
// walk set from the graph).
func (a *ApproxView) Seed() int64 { return a.seed }

// SetWorkers does nothing: approx has no batch kernel, and walk repair
// runs on the calling goroutine.
//
// Deprecated: no store has a worker setting (the batch kernel reads
// Params.Workers). SetWorkers remains only for simbench's trace replay,
// which still calls it.
func (a *Approx) SetWorkers(int) {}

// N returns the node count.
func (a *ApproxView) N() int { return a.idx.N() }

// ApplyUpdate applies up to the graph the walk index was built over and
// repairs the invalidated walk suffixes. It returns the ascending list
// of nodes whose stored walks changed — the engine's DirtyRows set for
// this update — in the index's repair scratch, valid until the next
// update. The update must apply (see Update). Single-writer path.
func (a *Approx) ApplyUpdate(up graph.Update) []int {
	dirty, _ := a.index.Apply(up)
	return dirty
}

// Update rejects up with the exact stores' *core.ErrBadUpdate reasons
// when it does not apply to g, the graph the walk index was built over,
// and otherwise applies it to g and repairs the walks through
// ApplyUpdate. DirtyRows names the
// nodes whose walk sets changed and, as on the exact stores, aliases
// scratch that is valid until the next update; no other Stats field is
// populated.
func (a *Approx) Update(g *graph.DiGraph, up graph.Update, _ Params) (core.Stats, error) {
	if err := core.CheckUpdate(g, up, nil); err != nil {
		return core.Stats{}, err
	}
	return core.Stats{DirtyRows: a.ApplyUpdate(up)}, nil
}

// Recompute applies ups to g (see Store), then resamples the whole walk
// set from the result. Equivalent in outcome to any sequence of repairs
// reaching the same topology (both equal the pure function of (graph,
// seed)), so it exists for cost, not correctness: once an update batch
// is large enough that most walks are affected anyway, one O(n·W·L)
// resample beats per-edge repair.
func (a *Approx) Recompute(g *graph.DiGraph, ups []graph.Update, _ Params) {
	for _, up := range ups {
		g.Apply(up)
	}
	a.index.Reset(g)
}

// RepairGen returns the repair-generation counter (persisted in
// snapshots).
func (a *ApproxView) RepairGen() uint64 { return a.idx.Gen() }

// SetRepairGen restores the repair-generation counter from a snapshot.
func (a *Approx) SetRepairGen(gen uint64) { a.index.SetGen(gen) }

// RepairStats returns cumulative repair work: walks whose suffix was
// resampled and individual walk steps resampled (process counters, not
// persisted).
func (a *ApproxView) RepairStats() (walksRepaired, stepsResampled uint64) {
	return a.idx.RepairStats()
}

// ResampleFraction is walksRepaired over the total walk-resample work a
// full rebuild per repaired update would have cost (gen·n·W) — the
// /stats figure quantifying the affected-area win; 0 before any repair.
func (a *ApproxView) ResampleFraction() float64 {
	repaired, _ := a.idx.RepairStats()
	gen := a.idx.Gen()
	if gen == 0 {
		return 0
	}
	return float64(repaired) / (float64(gen) * float64(a.idx.N()) * float64(a.walks))
}

// Seal returns an immutable point-in-time view of the walk set
// (⌈n/64⌉ block pointer copies; the writer copy-on-writes a node's
// walks before its next repair changes them). Queries on a sealed view
// are pure reads of frozen positions — no RNG, no lock, bit-stable
// forever.
func (a *Approx) Seal() View {
	v := a.ApproxView
	v.idx = a.index.Seal()
	return &v
}

// At estimates s(i, j) with the store's walk budget. A deterministic
// pure read of the stored walks — safe for any number of concurrent
// readers with no serialization.
func (a *ApproxView) At(i, j int) float64 { return a.idx.Pair(i, j, a.walks) }

// ConcurrentRow estimates the full row s(i, ·) — O(n·walks·walkLen)
// position reads — into a fresh slice.
func (a *ApproxView) ConcurrentRow(i int) []float64 { return a.idx.SingleSource(i, a.walks) }

// UpperRow panics: a global O(n²) scan is exactly what the sampling tier
// exists to avoid (the engine answers global top-k as unavailable).
func (a *ApproxView) UpperRow(int) []float64 {
	panic("simstore: approx backend has no materialized triangle to scan")
}

// ToDense returns nil: materializing n² estimates is the workload this
// backend exists to refuse.
func (a *ApproxView) ToDense() *matrix.Dense { return nil }

// AddNodes grows the walk index by count isolated nodes. diag is
// ignored — the estimator scores s(v, v) = 1 by definition, and an
// isolated node's walks die at home, exactly what a fresh rebuild over
// the grown graph samples.
func (a *Approx) AddNodes(count int, diag float64) Store {
	a.index.AddNodes(count)
	return a
}

// MemBytes reports the walk payload a view serves, O(n·W·L).
func (a *ApproxView) MemBytes() int64 { return a.idx.MemBytes() }

// MemBytes reports the writer's walk index, O(n·W·L): stored walk
// positions plus the repair postings. The in-lists the walks draw from
// are the graph's and are not counted.
func (a *Approx) MemBytes() int64 { return a.index.MemBytes() }

// Backend names the implementation.
func (a *ApproxView) Backend() Backend { return BackendApprox }

// TopKRow estimates the k nodes most similar to node q via the two-pass
// refinement of montecarlo.View.TopK: a cheap scan with a 1/refine
// fraction of the stored walks, then the provisional top 2k re-scored
// with the full budget. Deterministic — both passes read stored
// positions.
func (a *ApproxView) TopKRow(q, k int) []metrics.Pair {
	// Ceiling division so the refinement budget short·refineFactor is ≥
	// walks — Pair clamps it back to exactly the stored W, making
	// refined scores identical to At(q, ·).
	short := (a.walks + a.refineFactor - 1) / a.refineFactor
	scored := a.idx.TopK(q, k, short, a.refineFactor)
	out := make([]metrics.Pair, 0, len(scored))
	for _, s := range scored {
		// The refinement pass re-estimates each provisional candidate and
		// can land on 0 (no meeting in the bigger budget); a zero-score
		// "similar node" is noise, not an answer — drop it, matching the
		// exact backends' skip of zero entries.
		if s.Score > 0 {
			out = append(out, metrics.Pair{A: q, B: s.Node, Score: s.Score})
		}
	}
	return out
}

// PairStderr estimates s(a, b) together with its standard error.
func (a *ApproxView) PairStderr(i, j int) (est, stderr float64) {
	return a.idx.PairStderr(i, j, a.walks)
}
