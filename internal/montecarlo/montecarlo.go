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
// draws uniformly from the in-neighbors of the previous position. The
// draw at (u, w, t) comes from a derived seed — a pure hash of
// (seed, u, w, t) — rather than a shared RNG stream, which buys three
// properties at once:
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
	"runtime"
	"slices"
	"sort"
	"sync"

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

// Index is the stored-walk substrate of the sampling tier: W reverse
// walks of length ≤ L per node, positioned by derived seeds, plus the
// per-node postings that make incremental repair affected-area-local.
// A writer mutates it through Apply/AddNodes/Reset; Seal publishes an
// immutable point-in-time view for concurrent readers (per-node walk
// rows are copy-on-write, so sealing is O(n) pointer copies).
type Index struct {
	n       int
	c       float64
	walkLen int // L: steps per walk beyond the start position
	walks   int // W: walks stored per node
	seed    int64

	// powc[t] = C^t, the meeting-contribution table.
	powc []float64

	// ins[v] is the in-neighbor list of v in ascending order — the
	// sampling population of a draw made *from* v. Writer-owned; nil on
	// sealed views (queries never sample, they read stored positions).
	ins [][]int32

	// rows[u] holds node u's W walks contiguously: walk w occupies
	// rows[u][w*(L+1) .. w*(L+1)+L], position -1 marking a dead walk
	// (it reached a node with no in-neighbors). rows[u][w*(L+1)] == u.
	rows [][]int32

	// shared is the copy-on-write ledger: shared[u] means rows[u] is
	// referenced by at least one sealed view, so a repair of u's walks
	// clones the row first. Nil until the first Seal.
	shared []bool
	sealed bool

	// postings[v] packs the (walk, step) occurrences at v for steps
	// 1..L-1 as walkID<<stepBits | step, walkID = u*W + w. Step-0
	// occurrences are implicit (the W walks owned by v) and step-L
	// occurrences are irrelevant (no further draw is made from them).
	// Entries go stale lazily — an entry is live iff the row still holds
	// v at that step — and the whole structure is compacted when
	// tombstones dominate. Writer-owned; nil on sealed views.
	postings [][]uint64
	// total and live track posting entries including and excluding
	// tombstones; total > 2·live + n triggers compaction.
	total, live int
	// edges is Σ|ins[v]|, kept by Reset and Apply for MemBytes.
	// Writer-owned; 0 on sealed views.
	edges int

	// gen counts repair events (persisted by snapshots as the
	// repair-generation counter); walksRepaired and stepsResampled are
	// the cumulative work counters behind /stats.
	gen            uint64
	walksRepaired  uint64
	stepsResampled uint64

	// workers bounds the goroutines one repair fans suffix resampling
	// across: 0 selects GOMAXPROCS, 1 forces the serial path. Every
	// resampled position is a pure function of (seed, node, walk, step),
	// so the repaired index is bit-identical at any setting.
	workers int
}

// NewIndex builds the stored-walk index of g's current topology: c is
// the damping factor in (0,1), walkLen the walk cap (≤ 0 selects a
// default bounding the truncation error below 10⁻³ for the given c;
// the cap must stay ≤ 255 so postings pack), walks the per-node walk
// count, seed the derived-seed root. Construction costs O(n·walks·len).
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
	ix := &Index{c: c, walkLen: walkLen, walks: walks, seed: seed}
	ix.powc = make([]float64, walkLen+1)
	ix.powc[0] = 1
	for t := 1; t <= walkLen; t++ {
		ix.powc[t] = ix.powc[t-1] * c
	}
	ix.Reset(g)
	return ix, nil
}

// N returns the node count the index currently covers.
func (ix *Index) N() int { return ix.n }

// WalkLen returns the walk-length cap L (truncation error ≤ C^{L+1}).
func (ix *Index) WalkLen() int { return ix.walkLen }

// Walks returns W, the number of stored walks per node.
func (ix *Index) Walks() int { return ix.walks }

// Seed returns the derived-seed root the walks were positioned with.
func (ix *Index) Seed() int64 { return ix.seed }

// Gen returns the repair-generation counter: +1 per repaired update,
// reset only by an explicit Reset. Snapshots persist it.
func (ix *Index) Gen() uint64 { return ix.gen }

// SetGen overrides the repair-generation counter — the snapshot-restore
// hook that lets a rebuilt index resume the generation numbering of the
// serialized one (the walks themselves are a pure function of the graph
// and seed, so only the counter needs carrying).
func (ix *Index) SetGen(gen uint64) { ix.gen = gen }

// RepairStats returns the cumulative repair work: walks whose suffix was
// resampled and individual steps resampled.
func (ix *Index) RepairStats() (walksRepaired, stepsResampled uint64) {
	return ix.walksRepaired, ix.stepsResampled
}

// resolveWorkers maps the configured worker count to an effective
// fan-out width.
func (ix *Index) resolveWorkers() int {
	if ix.workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return ix.workers
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
func (ix *Index) stride() int { return ix.walkLen + 1 }

// Reset rebuilds the whole index from g — the full-resample safety
// valve behind Recompute and the constructor. Fresh rows are allocated
// wholesale, so sealed views keep serving their frozen walks untouched.
// The repair-generation counter survives (a recompute is itself a
// generation), the work counters keep accumulating.
func (ix *Index) Reset(g *graph.DiGraph) {
	if ix.sealed {
		panic("montecarlo: Reset on a sealed index view")
	}
	n := g.N()
	ix.n = n
	ix.ins = make([][]int32, n)
	ix.edges = 0
	for v := 0; v < n; v++ {
		nbrs := g.InNeighbors(v)
		row := make([]int32, len(nbrs))
		for i, u := range nbrs {
			row[i] = int32(u)
		}
		ix.ins[v] = row
		ix.edges += len(row)
	}
	ix.rows = make([][]int32, n)
	ix.shared = nil
	ix.postings = make([][]uint64, n)
	ix.total, ix.live = 0, 0
	for u := 0; u < n; u++ {
		ix.rows[u] = ix.sampleNode(u)
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
	nbrs := ix.ins[prev]
	if len(nbrs) == 0 {
		return -1
	}
	return nbrs[stepDraw(base, t)%uint64(len(nbrs))]
}

// postNode appends node u's live walk occurrences to the postings.
func (ix *Index) postNode(u int) {
	stride := ix.stride()
	row := ix.rows[u]
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

// Apply mutates the in-neighbor list for one edge update and repairs
// exactly the invalidated walk suffixes. It returns the ascending list
// of nodes whose stored walks changed (the MVCC DirtyRows set) and
// whether the graph actually changed (false for an insert of a present
// edge or a delete of an absent one — then nothing was touched).
func (ix *Index) Apply(up graph.Update) (dirty []int, changed bool) {
	if ix.sealed {
		panic("montecarlo: Apply on a sealed index view")
	}
	j := up.Edge.To
	if j < 0 || j >= ix.n || up.Edge.From < 0 || up.Edge.From >= ix.n {
		return nil, false
	}
	from := int32(up.Edge.From)
	if up.Insert {
		next, ok := insertSorted(ix.ins[j], from)
		if !ok {
			return nil, false
		}
		ix.ins[j] = next
		ix.edges++
	} else {
		next, ok := removeSorted(ix.ins[j], from)
		if !ok {
			return nil, false
		}
		ix.ins[j] = next
		ix.edges--
	}
	return ix.repair(j), true
}

// repair resamples every walk suffix invalidated by a change to ins[j]:
// the W walks owned by j (their first draw samples ins[j]) plus every
// live postings[j] occurrence, deduplicated per walk to its earliest
// affected step. Suffixes are resampled in full — an early exit on a
// re-converged position would be unsound when the old suffix revisits j
// later — and each changed position updates the postings incrementally.
// Returns the ascending owners of changed walks.
func (ix *Index) repair(j int) []int {
	ix.gen++
	W, stride := ix.walks, ix.stride()

	// Earliest affected step per walk. Walk IDs are dense per owner, so
	// a (walkID → step) map stays small: |affected| entries.
	aff := make(map[uint64]int, W+len(ix.postings[j]))
	for w := 0; w < W; w++ {
		aff[uint64(j)*uint64(W)+uint64(w)] = 0
	}
	for _, p := range ix.postings[j] {
		wid, t := p>>stepBits, int(p&(1<<stepBits-1))
		u, w := int(wid/uint64(W)), int(wid%uint64(W))
		if ix.rows[u][w*stride+t] != int32(j) {
			continue // tombstone: the walk has since moved off j at this step
		}
		if prev, ok := aff[wid]; !ok || t < prev {
			aff[wid] = t
		}
	}

	// Flatten the map into a sorted work list (walkID<<stepBits | t0):
	// ascending walk IDs mean ascending owners, so the serial scan and
	// any contiguous partition of the list both emit dirty owners in
	// ascending order with consecutive-duplicate merging — no set needed.
	list := make([]uint64, 0, len(aff))
	//simrank:orderinvariant collects keys only; sorted before use
	for wid, t0 := range aff {
		list = append(list, wid<<stepBits|uint64(t0))
	}
	slices.Sort(list)
	ix.walksRepaired += uint64(len(list))

	var dirty []int
	if workers := ix.resolveWorkers(); workers > 1 && len(list) >= minParallelRepair {
		dirty = ix.repairParallel(list, workers)
	} else {
		for _, e := range list {
			wid, t0 := e>>stepBits, int(e&(1<<stepBits-1))
			u, w := int(wid/uint64(W)), int(wid%uint64(W))
			if ix.resampleSuffix(u, w, t0) {
				if len(dirty) == 0 || dirty[len(dirty)-1] != u {
					dirty = append(dirty, u)
				}
			}
		}
	}
	if ix.total > 2*ix.live+ix.n {
		ix.compact()
	}
	return dirty
}

// minParallelRepair is the smallest affected-walk count worth fanning
// out: below it goroutine startup dominates the resampling itself.
const minParallelRepair = 32

// postEvent is one deferred posting append: entry p belongs in
// postings[v].
type postEvent struct {
	v int32
	p uint64
}

// repairLog buffers one worker's side effects so the shared structures
// (postings, live/total, the work counters) are only touched serially
// after the barrier, in worker order — the walk rows themselves are
// written in place, each walk by exactly one worker.
type repairLog struct {
	posts       []postEvent
	dirty       []int
	live, total int
	steps       uint64
}

// repairParallel resamples the sorted affected-walk list across workers
// goroutines. Every resampled position is a pure function of
// (seed, node, walk, step) and each walk belongs to exactly one chunk,
// so the rows come out bit-identical to the serial scan; the buffered
// side effects merge in worker order, keeping postings content and
// counters deterministic too. Walk rows are claimed (copy-on-write)
// serially up front — the COW ledger must not race.
func (ix *Index) repairParallel(list []uint64, workers int) []int {
	W := ix.walks
	prev := -1
	for _, e := range list {
		if u := int(e >> stepBits / uint64(W)); u != prev {
			ix.ownRow(u)
			prev = u
		}
	}
	if workers > len(list) {
		workers = len(list)
	}
	logs := make([]repairLog, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo, hi := wk*len(list)/workers, (wk+1)*len(list)/workers
		wg.Add(1)
		go func(lg *repairLog, chunk []uint64) {
			defer wg.Done()
			for _, e := range chunk {
				wid, t0 := e>>stepBits, int(e&(1<<stepBits-1))
				u, w := int(wid/uint64(W)), int(wid%uint64(W))
				if ix.resampleLogged(u, w, t0, lg) {
					if len(lg.dirty) == 0 || lg.dirty[len(lg.dirty)-1] != u {
						lg.dirty = append(lg.dirty, u)
					}
				}
			}
		}(&logs[wk], list[lo:hi])
	}
	wg.Wait()
	var dirty []int
	for wk := range logs {
		lg := &logs[wk]
		ix.stepsResampled += lg.steps
		ix.live += lg.live
		ix.total += lg.total
		for _, pe := range lg.posts {
			ix.postings[pe.v] = append(ix.postings[pe.v], pe.p)
		}
		for _, u := range lg.dirty {
			if len(dirty) == 0 || dirty[len(dirty)-1] != u {
				dirty = append(dirty, u)
			}
		}
	}
	return dirty
}

// resampleLogged is resampleSuffix writing its side effects into a
// worker-private log instead of the shared index state: positions land
// in the (pre-claimed) walk row directly, posting appends and counter
// bumps are deferred to the serial merge.
func (ix *Index) resampleLogged(u, w, t0 int, lg *repairLog) (changedAny bool) {
	L, stride := ix.walkLen, ix.stride()
	row := ix.rows[u] // claimed by repairParallel's serial ownRow pass
	off := w * stride
	base := ix.walkBase(u, w)
	wid := uint64(u)*uint64(ix.walks) + uint64(w)
	for t := t0 + 1; t <= L; t++ {
		lg.steps++
		np := ix.step(row[off+t-1], base, t)
		op := row[off+t]
		if np == op {
			continue
		}
		changedAny = true
		if t < L {
			if op >= 0 {
				lg.live--
			}
			if np >= 0 {
				lg.posts = append(lg.posts, postEvent{np, wid<<stepBits | uint64(t)})
				lg.total++
				lg.live++
			}
		}
		row[off+t] = np
	}
	return changedAny
}

// resampleSuffix recomputes walk w of node u from step t0+1 onward with
// the walk's derived seeds and the current in-neighbor lists, reporting
// whether any position changed. Changed positions at steps 1..L-1 are
// re-posted; the displaced entries become lazy tombstones.
func (ix *Index) resampleSuffix(u, w, t0 int) (changedAny bool) {
	L, stride := ix.walkLen, ix.stride()
	ix.ownRow(u)
	row := ix.rows[u]
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
		changedAny = true
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

// ownRow makes rows[u] exclusively the writer's, cloning it if a sealed
// view still references it. Free (one nil check) on never-sealed
// indexes.
func (ix *Index) ownRow(u int) {
	if ix.shared == nil || u >= len(ix.shared) || !ix.shared[u] {
		return
	}
	ix.rows[u] = append([]int32(nil), ix.rows[u]...)
	ix.shared[u] = false
}

// AddNodes appends count isolated nodes: their walks start at home and
// die immediately (no in-neighbors), which is exactly what a fresh
// rebuild over the grown graph would sample — determinism holds across
// growth too.
func (ix *Index) AddNodes(count int) {
	if ix.sealed {
		panic("montecarlo: AddNodes on a sealed index view")
	}
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
		ix.rows = append(ix.rows, row)
		ix.ins = append(ix.ins, nil)
		ix.postings = append(ix.postings, nil)
		if ix.shared != nil {
			ix.shared = append(ix.shared, false)
		}
	}
	ix.n += count
}

// Seal returns an immutable point-in-time view of the walk set: O(n)
// pointer copies, no walk data copied. The writer's next repair of a
// node clones that node's row first (copy-on-write), so the view serves
// frozen walks forever. Sealed views carry only the query surface —
// in-neighbor lists and postings stay writer-private.
func (ix *Index) Seal() *Index {
	if ix.sealed {
		return ix
	}
	if len(ix.shared) != ix.n {
		ix.shared = make([]bool, ix.n)
	}
	for i := range ix.shared {
		ix.shared[i] = true
	}
	return &Index{
		n: ix.n, c: ix.c, walkLen: ix.walkLen, walks: ix.walks, seed: ix.seed,
		powc:   ix.powc,
		rows:   append([][]int32(nil), ix.rows...),
		sealed: true,
		gen:    ix.gen, walksRepaired: ix.walksRepaired, stepsResampled: ix.stepsResampled,
	}
}

// Sealed reports whether the receiver is an immutable Seal view.
func (ix *Index) Sealed() bool { return ix.sealed }

// Clone returns an independent deep copy the writer can mutate without
// affecting the receiver.
func (ix *Index) Clone() *Index {
	dup := &Index{
		n: ix.n, c: ix.c, walkLen: ix.walkLen, walks: ix.walks, seed: ix.seed,
		powc: ix.powc,
		gen:  ix.gen, walksRepaired: ix.walksRepaired, stepsResampled: ix.stepsResampled,
		total: ix.total, live: ix.live, edges: ix.edges,
		workers: ix.workers,
	}
	dup.rows = make([][]int32, ix.n)
	for u, row := range ix.rows {
		dup.rows[u] = append([]int32(nil), row...)
	}
	if ix.sealed {
		// A clone of a sealed view is a full writable index again only if
		// the writer-side structures exist; sealed views have none, so the
		// clone stays a frozen query surface.
		dup.sealed = true
		return dup
	}
	dup.ins = make([][]int32, ix.n)
	for v, nbrs := range ix.ins {
		dup.ins[v] = append([]int32(nil), nbrs...)
	}
	dup.postings = make([][]uint64, ix.n)
	for v, ps := range ix.postings {
		dup.postings[v] = append([]uint64(nil), ps...)
	}
	return dup
}

// MemBytes reports the resident size: the stored walks plus (on the
// writer) the in-neighbor lists and postings — O(n·(W·L + d)) total,
// never O(n²). Sealed views count only the walk payload they serve.
// It is O(1), because every publish reads it: each row holds W·(L+1)
// positions, edges counts the in-neighbor entries and total the posting
// entries, so the sum equals a walk over the slices' lengths at 24 B per
// slice header, 4 per position or neighbor and 8 per posting.
func (ix *Index) MemBytes() int64 {
	n := int64(ix.n)
	b := n * (24 + 4*int64(ix.walks*ix.stride()))
	if !ix.sealed {
		b += n*48 + 4*int64(ix.edges) + 8*int64(ix.total)
	}
	return b
}

// meetStep returns the first step at which walk w of a and walk w of b
// coalesce (both alive at the same node), or -1 within the cap. It reads
// only a's live steps: step propagates -1, so a walk is dead from its
// first -1 on and no meeting can follow it.
func (ix *Index) meetStep(rowA, rowB []int32, off int) int {
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
func (ix *Index) clampWalks(walks int) int {
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
func (ix *Index) Pair(a, b int, walks int) float64 {
	walks = ix.clampWalks(walks)
	if a == b {
		return 1
	}
	rowA, rowB := ix.rows[a], ix.rows[b]
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
func (ix *Index) PairStderr(a, b int, walks int) (est, stderr float64) {
	walks = ix.clampWalks(walks)
	if a == b {
		return 1, 0
	}
	rowA, rowB := ix.rows[a], ix.rows[b]
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
func (ix *Index) SingleSource(a int, walks int) []float64 {
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
//   - every walk of v draws step 1 from the same list ins[v], and a
//     change to ins[j] resamples all of j's walks from step 1, so walk 0
//     is dead at step 1 exactly when all of v's walks are.
//
// So a query node with no in-links returns at once, a node whose walks
// die at step 1 costs one load, and Pair scores only the nodes that
// match a live position: the candidates and their first-pass scores are
// exactly those of a full scan.
func (ix *Index) TopK(a, k, walks, refineFactor int) []Scored {
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
	rowA, stride := ix.rows[a], ix.stride()
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
	for v, rowB := range ix.rows {
		if v == a || rowB[1] < 0 {
			continue
		}
		for _, o := range live {
			if rowB[o] == rowA[o] {
				if s := ix.Pair(a, v, walks); s > 0 {
					cands = append(cands, Scored{Node: v, Score: s})
				}
				break
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

// SetWorkers bounds the goroutines one repair fans suffix resampling
// across: 0 (the default) selects GOMAXPROCS, 1 forces the serial path.
// Single-writer path — call it only between Apply calls.
func (ix *Index) SetWorkers(workers int) {
	if workers < 0 {
		workers = 0
	}
	ix.workers = workers
}

// insertSorted adds v to an ascending slice, reporting false if present.
func insertSorted(s []int32, v int32) ([]int32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// removeSorted deletes v from an ascending slice, reporting false if
// absent.
func removeSorted(s []int32, v int32) ([]int32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i >= len(s) || s[i] != v {
		return s, false
	}
	return append(s[:i], s[i+1:]...), true
}
