// Package montecarlo implements the probabilistic SimRank estimators of
// the paper's related work (Section II-B): Fogaras and Rácz's P-SimRank
// [5,11] interprets s(a,b) as E[C^τ] where τ is the first meeting time of
// two coalescing reverse random walks; Li et al. [10] use the same walks
// for fast single-pair queries; Lee et al. [12] for approximate top-k.
//
// These estimators target the *iterative form* of SimRank (s(a,a) = 1).
// They trade exactness for locality: a single pair costs O(W·T) walk
// steps, independent of n², which is why the paper contrasts them with
// the deterministic algorithms it builds on.
//
// # Stored walks and incremental repair
//
// The Index stores W truncated reverse walks per node, in the
// fingerprint style of [5]: walk w of node u starts at u and each step t
// draws uniformly from the in-neighbors of the previous position, read
// in place from the graph's sorted in-lists (graph.DiGraph.In). The
// index adopts the graph it is built over and applies every later edge
// update to it (Apply), so the in-lists exist once. The draw at
// (u, w, t) comes from a derived seed — a pure hash of (seed, u, w, t) —
// rather than a shared RNG stream, which buys three properties at once:
//
//   - the entire walk set is a pure function of (graph, seed, W, L), so
//     a fresh rebuild at the same seed reproduces it bit-identically;
//   - queries are pure reads over the stored positions — no RNG, no
//     lock, no serialization of concurrent readers;
//   - an edge update at node j invalidates only the walk *suffixes*
//     that pass through j (the paper's affected-area idea applied to
//     the walk index): every other draw keys on unchanged (u, w, t)
//     and unchanged in-neighbor lists, so repairing exactly the
//     invalidated suffixes is bit-identical to rebuilding everything.
//
// Repair finds the affected walks in O(1) per occurrence through a
// per-node postings index: postings[v] lists the (walk, step) positions
// whose stored location is v. An update at j resamples, for each walk
// touching j at earliest step t, only the steps t+1..L — expected cost
// O(affected walks · remaining length) instead of the full O(n·W·L)
// rebuild. The expected affected fraction is the walk-visit probability
// of j, so low-degree nodes repair in microseconds while a full rebuild
// scales with the whole graph.
package montecarlo

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cow"
	"repro/internal/graph"
)

// maxWalkLen bounds the walk cap so a (walk, step) occurrence packs into
// one uint64 posting with 8 bits of step.
const maxWalkLen = 255

// stepBits is the width of the step field in a packed posting.
const stepBits = 8

// mix64 is the splitmix64 finalizer: a cheap invertible hash whose output
// bits pass statistical independence tests — the substrate of the derived
// per-step seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// View is an immutable point-in-time walk set: the query surface of the
// sampling tier, holding the stored walks and the parameters that read
// them. Index.Seal returns one, and any number of goroutines may query it
// while the writer repairs past it; View has no method that writes.
type View struct {
	n       int
	c       float64
	walkLen int // L: steps per walk beyond the start position
	walks   int // W: walks stored per node
	seed    int64

	// powc[t] = C^t, the meeting-contribution table.
	powc []float64

	// rows.Get(u) holds node u's W walks contiguously: walk w occupies
	// positions w*(L+1) .. w*(L+1)+L, -1 marking a dead walk (it reached
	// a node with no in-neighbors), and position w*(L+1) is u itself.
	// Sealed views share the table's blocks; the writer clones a row
	// before it changes one (cow.Table.Own).
	rows cow.Table[[]int32]

	// gen counts repair events (persisted by snapshots as the
	// repair-generation counter); walksRepaired and stepsResampled are
	// the cumulative work counters behind /stats.
	gen            uint64
	walksRepaired  uint64
	stepsResampled uint64
}

// Index is the stored-walk substrate of the sampling tier: W reverse
// walks of length ≤ L per node, positioned by derived seeds, plus the
// per-node postings that make incremental repair affected-area-local.
// A writer mutates it through Apply/AddNodes/Reset and queries it
// through the embedded View; Seal publishes an immutable View for
// concurrent readers. The per-node walk rows sit in a copy-on-write
// table (cow.Table), so sealing copies ⌈n/64⌉ block pointers and a
// repair clones only the rows it changes.
type Index struct {
	View

	// g is the graph the walks are drawn over: g.In(v), ascending, is
	// the sampling population of a draw made *from* v. The index applies
	// every edge update to g itself (Apply).
	g *graph.DiGraph

	// postings[v] packs the (walk, step) occurrences at v for steps
	// 1..L-1 as walkID<<stepBits | step, walkID = u*W + w. Step-0
	// occurrences are implicit (the W walks owned by v) and step-L
	// occurrences are irrelevant (no further draw is made from them).
	// Entries go stale lazily — an entry is live iff the row still holds
	// v at that step — and the whole structure is compacted when
	// tombstones dominate.
	postings [][]uint64
	// total and live track posting entries including and excluding
	// tombstones; total > 2·live + n triggers compaction.
	total, live int

	// work and dirty are repair's scratch, reused by every update: the
	// packed (walk, step) work list and the owners of changed walks,
	// which Apply returns. Clone does not carry them.
	work  []uint64
	dirty []int
}

// NewIndex builds the stored-walk index over g, which it adopts (see
// Reset): c is the damping factor in (0,1), walkLen the walk cap (≤ 0
// selects a default bounding the truncation error below 10⁻³ for the
// given c; the cap must stay ≤ 255 so postings pack), walks the per-node
// walk count, seed the derived-seed root. Construction costs
// O(n·walks·len).
func NewIndex(g *graph.DiGraph, c float64, walkLen, walks int, seed int64) (*Index, error) {
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("montecarlo: damping factor %v outside (0,1)", c)
	}
	if walkLen <= 0 {
		walkLen = int(math.Ceil(math.Log(1e-3)/math.Log(c))) + 1
	}
	if walkLen > maxWalkLen {
		return nil, fmt.Errorf("montecarlo: walk length %d exceeds the %d-step posting limit", walkLen, maxWalkLen)
	}
	if walks <= 0 {
		return nil, fmt.Errorf("montecarlo: non-positive walk count %d", walks)
	}
	ix := &Index{View: View{c: c, walkLen: walkLen, walks: walks, seed: seed}}
	ix.powc = make([]float64, walkLen+1)
	ix.powc[0] = 1
	for t := 1; t <= walkLen; t++ {
		ix.powc[t] = ix.powc[t-1] * c
	}
	ix.Reset(g)
	return ix, nil
}

// N returns the node count the index currently covers.
func (ix *View) N() int { return ix.n }

// WalkLen returns the walk-length cap L (truncation error ≤ C^{L+1}).
func (ix *View) WalkLen() int { return ix.walkLen }

// Walks returns W, the number of stored walks per node.
func (ix *View) Walks() int { return ix.walks }

// Seed returns the derived-seed root the walks were positioned with.
func (ix *View) Seed() int64 { return ix.seed }

// Gen returns the repair-generation counter: +1 per repaired update,
// reset only by an explicit Reset. Snapshots persist it.
func (ix *View) Gen() uint64 { return ix.gen }

// SetGen overrides the repair-generation counter — the snapshot-restore
// hook that lets a rebuilt index resume the generation numbering of the
// serialized one (the walks themselves are a pure function of the graph
// and seed, so only the counter needs carrying).
func (ix *Index) SetGen(gen uint64) { ix.gen = gen }

// RepairStats returns the cumulative repair work: walks whose suffix was
// resampled and individual steps resampled.
func (ix *View) RepairStats() (walksRepaired, stepsResampled uint64) {
	return ix.walksRepaired, ix.stepsResampled
}

// walkBase derives the per-walk seed base; stepDraw folds the step in.
// Chained splitmix64 finalizers keep draws statistically independent
// across (u, w, t) while staying pure — the whole point: position
// (u, w, t) resamples to the same value no matter when or why.
func (ix *Index) walkBase(u, w int) uint64 {
	x := mix64(uint64(ix.seed) ^ (uint64(u)+1)*0x9e3779b97f4a7c15)
	return mix64(x ^ (uint64(w)+1)*0xc2b2ae3d27d4eb4f)
}

func stepDraw(base uint64, t int) uint64 {
	return mix64(base + uint64(t)*0x165667b19e3779f9)
}

// stride is the per-walk row stride.
func (ix *View) stride() int { return ix.walkLen + 1 }

// Reset adopts g and rebuilds the whole index from it — the
// full-resample safety valve behind Recompute and the constructor. From
// here on g changes only through Apply and AddNodes. Fresh rows are
// allocated wholesale, so sealed views keep serving their frozen walks
// untouched. The repair-generation counter survives (a recompute is
// itself a generation), the work counters keep accumulating.
func (ix *Index) Reset(g *graph.DiGraph) {
	n := g.N()
	ix.g = g
	ix.n = n
	ix.rows = cow.New(slices.Clone[[]int32])
	ix.postings = make([][]uint64, n)
	ix.total, ix.live = 0, 0
	for u := 0; u < n; u++ {
		ix.rows.Append(ix.sampleNode(u))
	}
	for u := 0; u < n; u++ {
		ix.postNode(u)
	}
}

// sampleNode positions all W walks of node u from their derived seeds.
func (ix *Index) sampleNode(u int) []int32 {
	stride := ix.stride()
	row := make([]int32, ix.walks*stride)
	for w := 0; w < ix.walks; w++ {
		off := w * stride
		row[off] = int32(u)
		base := ix.walkBase(u, w)
		for t := 1; t <= ix.walkLen; t++ {
			row[off+t] = ix.step(row[off+t-1], base, t)
		}
	}
	return row
}

// step draws the next position from prev's in-neighbors (-1 propagates
// and marks death at a node with no in-links).
func (ix *Index) step(prev int32, base uint64, t int) int32 {
	if prev < 0 {
		return -1
	}
	nbrs := ix.g.In(int(prev))
	if len(nbrs) == 0 {
		return -1
	}
	return nbrs[stepDraw(base, t)%uint64(len(nbrs))]
}

// postNode appends node u's live walk occurrences to the postings.
func (ix *Index) postNode(u int) {
	stride := ix.stride()
	row := ix.rows.Get(u)
	for w := 0; w < ix.walks; w++ {
		wid := uint64(u)*uint64(ix.walks) + uint64(w)
		off := w * stride
		for t := 1; t < ix.walkLen; t++ {
			if v := row[off+t]; v >= 0 {
				ix.postings[v] = append(ix.postings[v], wid<<stepBits|uint64(t))
				ix.total++
				ix.live++
			}
		}
	}
}

// Apply applies one edge update to the index's graph and repairs
// exactly the invalidated walk suffixes. It returns the ascending list
// of nodes whose stored walks changed (the MVCC DirtyRows set) and
// whether the graph actually changed (false for an out-of-range node,
// an insert of a present edge or a delete of an absent one — then
// nothing was touched). The list is the index's scratch: valid until
// the next Apply.
func (ix *Index) Apply(up graph.Update) (dirty []int, changed bool) {
	j := up.Edge.To
	if j < 0 || j >= ix.n || up.Edge.From < 0 || up.Edge.From >= ix.n || !ix.g.Apply(up) {
		return nil, false
	}
	return ix.repair(j), true
}

// repair resamples every walk suffix invalidated by a change to I(j):
// the W walks owned by j (their first draw samples I(j)) plus every
// live postings[j] occurrence, deduplicated per walk to its earliest
// affected step. Suffixes are resampled in full — an early exit on a
// re-converged position would be unsound when the old suffix revisits j
// later — and each changed position updates the postings incrementally.
// Returns the ascending owners of changed walks, in the dirty scratch.
func (ix *Index) repair(j int) []int {
	ix.gen++
	W, stride := ix.walks, ix.stride()

	// The work list holds affected (walk, step) pairs packed as postings
	// are, walkID<<stepBits | step: j's own W walks at step 0, then every
	// live postings[j] entry. Sorted, each walk's entries sit together in
	// ascending step order, so its first entry is its earliest affected
	// step; ascending walk IDs mean ascending owners, so the scan emits
	// dirty owners in order by merging consecutive duplicates.
	work := ix.work[:0]
	for w := 0; w < W; w++ {
		work = append(work, (uint64(j)*uint64(W)+uint64(w))<<stepBits)
	}
	for _, p := range ix.postings[j] {
		wid, t := p>>stepBits, int(p&(1<<stepBits-1))
		u, w := int(wid/uint64(W)), int(wid%uint64(W))
		if ix.rows.Get(u)[w*stride+t] != int32(j) {
			continue // tombstone: the walk has since moved off j at this step
		}
		work = append(work, p)
	}
	slices.Sort(work)
	ix.work = work

	dirty := ix.dirty[:0]
	for i, e := range work {
		wid, t0 := e>>stepBits, int(e&(1<<stepBits-1))
		if i > 0 && work[i-1]>>stepBits == wid {
			continue // a later step of a walk already resampled from an earlier one
		}
		ix.walksRepaired++
		u, w := int(wid/uint64(W)), int(wid%uint64(W))
		if ix.resampleSuffix(u, w, t0) {
			if len(dirty) == 0 || dirty[len(dirty)-1] != u {
				dirty = append(dirty, u)
			}
		}
	}
	ix.dirty = dirty
	if ix.total > 2*ix.live+ix.n {
		ix.compact()
	}
	return dirty
}

// resampleSuffix recomputes walk w of node u from step t0+1 onward with
// the walk's derived seeds and the current in-neighbor lists, reporting
// whether any position changed. Changed positions at steps 1..L-1 are
// re-posted; the displaced entries become lazy tombstones. The row is
// taken for writing at its first changed position, so a resample that
// changes nothing clones nothing.
func (ix *Index) resampleSuffix(u, w, t0 int) (changedAny bool) {
	L, stride := ix.walkLen, ix.stride()
	row := ix.rows.Get(u)
	off := w * stride
	base := ix.walkBase(u, w)
	wid := uint64(u)*uint64(ix.walks) + uint64(w)
	for t := t0 + 1; t <= L; t++ {
		ix.stepsResampled++
		np := ix.step(row[off+t-1], base, t)
		op := row[off+t]
		if np == op {
			continue
		}
		if !changedAny {
			row = ix.rows.Own(u)
			changedAny = true
		}
		if t < L {
			if op >= 0 {
				ix.live-- // the stale posting at op is now a tombstone
			}
			if np >= 0 {
				ix.postings[np] = append(ix.postings[np], wid<<stepBits|uint64(t))
				ix.total++
				ix.live++
			}
		}
		row[off+t] = np
	}
	return changedAny
}

// compact rebuilds the postings from the rows, dropping every tombstone
// — O(n·W·L), amortized free since it runs only once tombstones exceed
// the live entries.
func (ix *Index) compact() {
	for v := range ix.postings {
		ix.postings[v] = ix.postings[v][:0]
	}
	ix.total, ix.live = 0, 0
	for u := 0; u < ix.n; u++ {
		ix.postNode(u)
	}
}

// AddNodes appends rows and postings for the last count nodes of the
// index's graph, which the caller has already grown by them: isolated
// nodes, whose walks start at home and die immediately (no
// in-neighbors), which is exactly what a fresh rebuild over the grown
// graph would sample — determinism holds across growth too.
func (ix *Index) AddNodes(count int) {
	if count < 0 {
		panic(fmt.Sprintf("montecarlo: negative node count %d", count))
	}
	stride := ix.stride()
	for i := 0; i < count; i++ {
		u := ix.n + i
		row := make([]int32, ix.walks*stride)
		for w := 0; w < ix.walks; w++ {
			off := w * stride
			row[off] = int32(u)
			for t := 1; t <= ix.walkLen; t++ {
				row[off+t] = -1
			}
		}
		ix.rows.Append(row)
		ix.postings = append(ix.postings, nil)
	}
	ix.n += count
}

// Seal returns an immutable point-in-time view of the walk set: the
// View header plus ⌈n/64⌉ block pointer copies, no walk data copied.
// The writer's next change to a node's walks clones that node's row
// first (copy-on-write), so the view serves frozen walks forever. The
// graph, postings and repair scratch stay with the writer.
func (ix *Index) Seal() *View {
	v := ix.View
	v.rows = ix.rows.Seal()
	return &v
}

// Clone returns an independent deep copy, graph included, the writer can
// mutate without affecting the receiver.
func (ix *Index) Clone() *Index {
	dup := &Index{View: ix.View, g: ix.g.Clone(), total: ix.total, live: ix.live}
	dup.rows = cow.New(slices.Clone[[]int32])
	for u := 0; u < ix.n; u++ {
		dup.rows.Append(slices.Clone(ix.rows.Get(u)))
	}
	dup.postings = make([][]uint64, ix.n)
	for v, ps := range ix.postings {
		dup.postings[v] = append([]uint64(nil), ps...)
	}
	return dup
}

// MemBytes reports the stored walks a view serves: W·(L+1) positions
// per node at 4 B plus a 24 B row header — O(n·W·L), never O(n²), and
// O(1) to compute, because every publish reads it.
func (ix *View) MemBytes() int64 {
	return int64(ix.n) * (24 + 4*int64(ix.walks*ix.stride()))
}

// MemBytes reports the writer's resident size: the view's walks plus
// the postings — O(n·W·L) total. total counts the posting entries, so
// the sum equals a walk over the postings' lengths at 24 B per slice
// header and 8 per posting. The in-lists the walks draw from are the
// graph's, not counted here.
func (ix *Index) MemBytes() int64 {
	return ix.View.MemBytes() + int64(ix.n)*24 + 8*int64(ix.total)
}

// meetStep returns the first step at which walk w of a and walk w of b
// coalesce (both alive at the same node), or -1 within the cap. It reads
// only a's live steps: step propagates -1, so a walk is dead from its
// first -1 on and no meeting can follow it.
func (ix *View) meetStep(rowA, rowB []int32, off int) int {
	for t := 1; t <= ix.walkLen; t++ {
		x := rowA[off+t]
		if x < 0 {
			return -1
		}
		if x == rowB[off+t] {
			return t
		}
	}
	return -1
}

// clampWalks validates and caps a per-query walk budget at the stored W.
func (ix *View) clampWalks(walks int) int {
	if walks <= 0 {
		panic("montecarlo: non-positive walk count")
	}
	if walks > ix.walks {
		return ix.walks
	}
	return walks
}

// Pair estimates s(a, b) from the first `walks` stored walk-pairs
// (capped at the index's W): ŝ = (1/W)·Σ C^{τ_w}, the P-SimRank
// estimator. A pure read — deterministic, lock-free, safe for any
// number of concurrent callers.
func (ix *View) Pair(a, b int, walks int) float64 {
	walks = ix.clampWalks(walks)
	if a == b {
		return 1
	}
	return ix.pairRows(ix.rows.Get(a), ix.rows.Get(b), walks)
}

// pairRows is Pair over the rows of two distinct nodes, for a walk count
// already clamped.
func (ix *View) pairRows(rowA, rowB []int32, walks int) float64 {
	stride := ix.stride()
	var sum float64
	for w := 0; w < walks; w++ {
		if t := ix.meetStep(rowA, rowB, w*stride); t >= 0 {
			sum += ix.powc[t]
		}
	}
	return sum / float64(walks)
}

// PairStderr estimates s(a, b) together with the standard error of the
// estimate, for confidence-interval reporting. Like Pair it panics on a
// non-positive walk count — with zero walks the mean is 0/0, and
// returning NaN would poison every downstream comparison silently.
func (ix *View) PairStderr(a, b int, walks int) (est, stderr float64) {
	walks = ix.clampWalks(walks)
	if a == b {
		return 1, 0
	}
	rowA, rowB := ix.rows.Get(a), ix.rows.Get(b)
	stride := ix.stride()
	var sum, sumSq float64
	for w := 0; w < walks; w++ {
		var v float64
		if t := ix.meetStep(rowA, rowB, w*stride); t >= 0 {
			v = ix.powc[t]
		}
		sum += v
		sumSq += v * v
	}
	n := float64(walks)
	mean := sum / n
	varr := (sumSq - n*mean*mean) / math.Max(1, n-1)
	if varr < 0 {
		varr = 0
	}
	return mean, math.Sqrt(varr / n)
}

// SingleSource estimates s(a, v) for every v with the given walk budget
// per pair (the single-source query of [10]).
func (ix *View) SingleSource(a int, walks int) []float64 {
	out := make([]float64, ix.n)
	for v := 0; v < ix.n; v++ {
		out[v] = ix.Pair(a, v, walks)
	}
	return out
}

// Scored is a node with its estimated similarity to a query node.
type Scored struct {
	Node  int
	Score float64
}

// TopK estimates the k nodes most similar to a (excluding a itself),
// in the style of [12]: a cheap first pass over all candidates followed
// by a refinement pass with refineFactor× more walks on the provisional
// top 2k. Both passes read the same stored walks, so the answer is
// deterministic. k is clamped to n−1, and k ≤ 0 yields nil.
//
// The first pass keeps every v with Pair(a, v, walks) > 0, but it reads
// only the walk steps that can meet, on two invariants of the stored
// walks:
//   - step propagates -1, so a walk's live steps form a prefix, and v
//     can score only by sitting at a's position at one of a's live
//     steps;
//   - every walk of v draws step 1 from the same list I(v), and a
//     change to I(j) resamples all of j's walks from step 1, so walk 0
//     is dead at step 1 exactly when all of v's walks are.
//
// So a query node with no in-links returns at once, a node whose walks
// die at step 1 costs one load, and Pair scores only the nodes that
// match a live position: the candidates and their first-pass scores are
// exactly those of a full scan.
func (ix *View) TopK(a, k, walks, refineFactor int) []Scored {
	if k > ix.n-1 {
		k = ix.n - 1
	}
	if k <= 0 {
		return nil
	}
	walks = ix.clampWalks(walks)
	if refineFactor < 1 {
		refineFactor = 1
	}
	rowA, stride := ix.rows.Get(a), ix.stride()
	if rowA[1] < 0 {
		return nil // every walk of a dies at step 1
	}
	// Offsets of a's live steps in its first walks walks.
	live := make([]int32, 0, walks*ix.walkLen)
	for w := 0; w < walks; w++ {
		off := w * stride
		for t := 1; t <= ix.walkLen && rowA[off+t] >= 0; t++ {
			live = append(live, int32(off+t))
		}
	}
	var cands []Scored
	for b := range ix.rows.Blocks() {
		base := b * cow.BlockRows
		for k, rowB := range ix.rows.Block(b) {
			v := base + k
			if v == a || rowB[1] < 0 {
				continue
			}
			for _, o := range live {
				if rowB[o] == rowA[o] {
					if s := ix.pairRows(rowA, rowB, walks); s > 0 {
						cands = append(cands, Scored{Node: v, Score: s})
					}
					break
				}
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Node < cands[j].Node
	})
	short := 2 * k
	if short > len(cands) {
		short = len(cands)
	}
	refined := cands[:short]
	for i := range refined {
		refined[i].Score = ix.Pair(a, refined[i].Node, walks*refineFactor)
	}
	sort.Slice(refined, func(i, j int) bool {
		if refined[i].Score != refined[j].Score {
			return refined[i].Score > refined[j].Score
		}
		return refined[i].Node < refined[j].Node
	})
	if k > len(refined) {
		k = len(refined)
	}
	return refined[:k]
}
