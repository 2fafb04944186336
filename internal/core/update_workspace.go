package core

import (
	"repro/internal/graph"
	"repro/internal/matrix"
)

// qEnt is one entry of a dynamic sparse row: column index and value.
type qEnt struct {
	idx int
	val float64
}

// Workspace is the persistent compute state of one engine: the transition
// matrices maintained incrementally across updates, plus every scratch
// buffer the Inc-SR/Inc-uSR hot paths need. With a warm Workspace a unit
// update performs zero heap allocations and never rebuilds the O(m)
// transposed transition matrix — an edge change touches one row of Qᵀ and
// rescales the d_j entries of column j, O(d_j·log d) total.
//
// A Workspace mirrors one graph: construct it with NewWorkspace and call
// ApplyUpdate after every update applied to the graph (the engine facade
// does both). It is not safe for concurrent use.
type Workspace struct {
	n   int
	din []int // in-degrees, maintained by ApplyUpdate

	// q holds Q: row j lists (i, 1/d_j) for i ∈ I(j), sorted by i — the
	// gather layout of Inc-uSR's mat-vecs and of the batch recompute. qt
	// holds Qᵀ: row b lists (a, 1/d_a) for a ∈ O(b), sorted by a — the
	// sparse scatter layout of Inc-SR's ξ/η iteration; it is transposed
	// from q on the first IncSR (see ensureIncSR) and maintained
	// incrementally from then on. Sorted rows make every result
	// independent of Go's map iteration order.
	q  [][]qEnt
	qt [][]qEnt

	// vws (Theorem 1's v) and si (the [S]_{·,i} column copy) serve both
	// update algorithms and are always present.
	vws *wsVec
	si  []float64

	// dirtyMark/dirtyRows record the rows of S the most recent update
	// actually wrote — the invalidation signal a read-path cache needs
	// (Stats.DirtyRows aliases dirtyRows). Reset at the start of every
	// update, so the slice handed out stays valid until the next one.
	dirtyMark []bool
	dirtyRows []int

	// Inc-SR scratch, allocated on first use (see ensureIncSR): the
	// sparse workspace vectors of Algorithm 2, the pooled rows of the
	// update matrix M, and the touched-pair bitset. All are reset (in
	// time proportional to their support) at the end of each update, so
	// steady state reuses the same memory.
	b0, w, gam, colSupp *wsVec
	xi, xiNext, etaNext *wsVec
	mRows               [][]float64
	rowSupp             []int
	rowPool             [][]float64
	touched             *pairBitset

	// Inc-uSR dense scratch, allocated on first use (pruning disabled).
	mDense                                 *matrix.Dense
	wD, gamD, xiD, etaD, xiNextD, etaNextD []float64

	// Batch-recompute scratch, allocated on first use.
	scratch *matrix.Dense
	qCSR    matrix.CSR
}

// NewWorkspace builds the persistent update state for g's current
// topology: O(n + m) time and the only allocation point of the steady
// state.
func NewWorkspace(g *graph.DiGraph) *Workspace {
	n := g.N()
	ws := &Workspace{
		n:         n,
		din:       make([]int, n),
		q:         make([][]qEnt, n),
		vws:       newWsVec(n),
		si:        make([]float64, n),
		dirtyMark: make([]bool, n),
	}
	for v := 0; v < n; v++ {
		ws.din[v] = g.InDegree(v)
	}
	for j := 0; j < n; j++ {
		d := ws.din[j]
		if d == 0 {
			continue
		}
		wv := 1 / float64(d)
		for _, i := range g.InNeighbors(j) { // ascending
			ws.q[j] = append(ws.q[j], qEnt{i, wv})
		}
	}
	return ws
}

// ensureIncSR allocates the Inc-SR-only state on first use: Qᵀ
// (transposed from the maintained Q; iterating target rows in ascending
// order leaves every Qᵀ row sorted) plus the sparse scratch vectors and
// the touched-pair bitset. Inc-uSR-only and batch-only workspaces never
// pay for any of it.
func (ws *Workspace) ensureIncSR() {
	if ws.qt != nil {
		return
	}
	n := ws.n
	qt := make([][]qEnt, n)
	for a := 0; a < n; a++ {
		for _, e := range ws.q[a] {
			qt[e.idx] = append(qt[e.idx], qEnt{a, e.val})
		}
	}
	ws.qt = qt
	ws.b0 = newWsVec(n)
	ws.w = newWsVec(n)
	ws.gam = newWsVec(n)
	ws.colSupp = newWsVec(n)
	ws.xi = newWsVec(n)
	ws.xiNext = newWsVec(n)
	ws.etaNext = newWsVec(n)
	ws.mRows = make([][]float64, n)
	ws.touched = newPairBitset(n)
}

// N returns the node count the workspace was built for.
func (ws *Workspace) N() int { return ws.n }

// SetWorkers does nothing: every update runs on the calling goroutine,
// and the batch kernel takes its worker count as an argument.
//
// Deprecated: the workspace has no worker count. SetWorkers remains only
// for simbench's trace replay, which still calls it.
func (ws *Workspace) SetWorkers(int) {}

// StopPool does nothing: the workspace starts no goroutines.
//
// Deprecated: there is no pool to stop. StopPool remains only for
// simbench's trace replay, which still calls it.
func (ws *Workspace) StopPool() {}

// resetDirty clears the dirty-row record for the next update, in time
// proportional to the rows previously marked.
//
//simrank:noalloc
func (ws *Workspace) resetDirty() {
	for _, r := range ws.dirtyRows {
		ws.dirtyMark[r] = false
	}
	ws.dirtyRows = ws.dirtyRows[:0]
}

// markDirty records that the update wrote row r of S.
//
//simrank:noalloc
func (ws *Workspace) markDirty(r int) {
	if !ws.dirtyMark[r] {
		ws.dirtyMark[r] = true
		ws.dirtyRows = append(ws.dirtyRows, r)
	}
}

// searchEnt returns the position of idx in the sorted row (or the
// insertion point if absent).
//
//simrank:noalloc
func searchEnt(row []qEnt, idx int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hasEdge reports whether edge (i, j) is present, i.e. i ∈ I(j).
//
//simrank:noalloc
func (ws *Workspace) hasEdge(i, j int) bool {
	row := ws.q[j]
	p := searchEnt(row, i)
	return p < len(row) && row[p].idx == i
}

// setEnt overwrites the value at idx, which must be present.
//
//simrank:noalloc
func setEnt(row []qEnt, idx int, v float64) {
	row[searchEnt(row, idx)].val = v
}

// insertEnt adds (idx, v) keeping the row sorted; idx must be absent.
//
//simrank:noalloc
func insertEnt(row []qEnt, idx int, v float64) []qEnt {
	p := searchEnt(row, idx)
	row = append(row, qEnt{})
	copy(row[p+1:], row[p:])
	row[p] = qEnt{idx, v}
	return row
}

// removeEnt deletes idx, which must be present, keeping the row sorted.
//
//simrank:noalloc
func removeEnt(row []qEnt, idx int) []qEnt {
	p := searchEnt(row, idx)
	copy(row[p:], row[p+1:])
	return row[:len(row)-1]
}

// ApplyUpdate folds one unit update into the maintained Q, Qᵀ and
// in-degrees. Call it exactly when the update is applied to the graph,
// after IncSR/IncUSR (which read the pre-update state). An insertion or
// deletion of (i, j) touches row i of Qᵀ plus the d_j entries of column j
// (found by binary search in their rows), and row j of Q — O(d) work, no
// O(m) rebuild, no sort.
//
//simrank:noalloc
func (ws *Workspace) ApplyUpdate(up graph.Update) {
	i, j := up.Edge.From, up.Edge.To
	hasQt := ws.qt != nil // Qᵀ is lazy; when absent it is rebuilt from Q on demand
	if up.Insert {
		dj := ws.din[j]
		nv := 1 / float64(dj+1)
		if hasQt {
			// Column j of Qᵀ lives in the rows of j's current in-neighbors.
			for _, e := range ws.q[j] {
				setEnt(ws.qt[e.idx], j, nv)
			}
			ws.qt[i] = insertEnt(ws.qt[i], j, nv)
		}
		row := ws.q[j]
		for t := range row {
			row[t].val = nv
		}
		ws.q[j] = insertEnt(row, i, nv)
		ws.din[j] = dj + 1
		return
	}
	dj := ws.din[j]
	if hasQt {
		ws.qt[i] = removeEnt(ws.qt[i], j)
	}
	ws.q[j] = removeEnt(ws.q[j], i)
	if dj > 1 {
		nv := 1 / float64(dj-1)
		row := ws.q[j]
		for t := range row {
			row[t].val = nv
		}
		if hasQt {
			for _, e := range row {
				setEnt(ws.qt[e.idx], j, nv)
			}
		}
	}
	ws.din[j] = dj - 1
}

// decompose validates the update and computes the rank-one decomposition
// ΔQ = u·vᵀ of Theorem 1 into the workspace: v is written to ws.vws
// (support order: i first, then I(j) ascending) and the single magnitude
// of u = uv·e_j is returned. Allocation-free Decompose.
//
//simrank:noalloc
func (ws *Workspace) decompose(up graph.Update) (uv float64, err error) {
	i, j := up.Edge.From, up.Edge.To
	if i < 0 || i >= ws.n || j < 0 || j >= ws.n {
		return 0, &ErrBadUpdate{up, "node out of range"}
	}
	dj := ws.din[j]
	v := ws.vws
	if up.Insert {
		if ws.hasEdge(i, j) {
			return 0, &ErrBadUpdate{up, "edge already present"}
		}
		if dj == 0 {
			v.add(i, 1)
			return 1, nil
		}
		v.add(i, 1)
		w := 1 / float64(dj)
		for _, e := range ws.q[j] {
			v.add(e.idx, -w) // subtract [Q]_{j,t} = 1/d_j
		}
		v.compact(ZeroTol)
		return 1 / float64(dj+1), nil
	}
	if !ws.hasEdge(i, j) {
		return 0, &ErrBadUpdate{up, "edge absent"}
	}
	if dj == 1 {
		v.add(i, -1)
		return 1, nil
	}
	v.add(i, -1)
	w := 1 / float64(dj)
	for _, e := range ws.q[j] {
		v.add(e.idx, w) // add [Q]_{j,t}
	}
	v.compact(ZeroTol)
	return 1 / float64(dj-1), nil
}

// mulQ computes dst = Q·x for dense x, gathering along the sorted rows
// of the maintained Q — entrywise the same left-to-right accumulation as
// a CSR mat-vec on the freshly built transition matrix.
//
//simrank:noalloc
func (ws *Workspace) mulQ(dst, x []float64) {
	for a := 0; a < ws.n; a++ {
		var s float64
		for _, e := range ws.q[a] {
			s += e.val * x[e.idx]
		}
		dst[a] = s
	}
}

// scatterQ computes dst += Q·x for workspace vectors:
// [Q·x]_a = Σ_{b ∈ I(a)} x_b / d_a, accumulated along the rows of Qᵀ.
//
//simrank:noalloc
func (ws *Workspace) scatterQ(x, dst *wsVec) {
	for _, b := range x.supp {
		xb := x.vals[b]
		for _, e := range ws.qt[b] {
			dst.add(e.idx, xb*e.val)
		}
	}
}

// TransitionCSR materializes the maintained Q into a reusable CSR (rows
// sorted, identical to graph.BackwardTransition of the mirrored graph).
// The returned matrix aliases workspace storage and is valid until the
// next ApplyUpdate; steady-state calls allocate nothing once the backing
// arrays have grown to the graph's edge count.
//
//simrank:noalloc
func (ws *Workspace) TransitionCSR() *matrix.CSR {
	csr := &ws.qCSR
	if csr.RowPtr == nil {
		csr.RowPtr = make([]int, ws.n+1) //simrank:allocok first-use growth; steady state reuses the backing array
	}
	csr.RowsN, csr.ColsN = ws.n, ws.n
	csr.ColIdx = csr.ColIdx[:0]
	csr.Val = csr.Val[:0]
	for j := 0; j < ws.n; j++ {
		for _, e := range ws.q[j] {
			csr.ColIdx = append(csr.ColIdx, e.idx)
			csr.Val = append(csr.Val, e.val)
		}
		csr.RowPtr[j+1] = len(csr.ColIdx)
	}
	return csr
}

// DenseScratch returns the workspace's n×n ping-pong buffer for batch
// recomputation, allocated on first use and reused afterwards.
func (ws *Workspace) DenseScratch() *matrix.Dense {
	if ws.scratch == nil {
		ws.scratch = matrix.NewDense(ws.n, ws.n)
	}
	return ws.scratch
}

// ensureDense allocates the Inc-uSR dense scratch on first use.
func (ws *Workspace) ensureDense() {
	if ws.mDense != nil {
		return
	}
	n := ws.n
	ws.mDense = matrix.NewDense(n, n)
	ws.wD = make([]float64, n)
	ws.gamD = make([]float64, n)
	ws.xiD = make([]float64, n)
	ws.etaD = make([]float64, n)
	ws.xiNextD = make([]float64, n)
	ws.etaNextD = make([]float64, n)
}

// claimRow gives row a of M a zeroed dense row, drawn from the row pool,
// and records a in rowSupp on first touch.
//
//simrank:noalloc
func (ws *Workspace) claimRow(a int) {
	if ws.mRows[a] != nil {
		return
	}
	var row []float64
	if p := len(ws.rowPool); p > 0 {
		row = ws.rowPool[p-1]
		ws.rowPool = ws.rowPool[:p-1]
	} else {
		row = make([]float64, ws.n) //simrank:allocok pool miss; the pool converges to the peak frontier and misses stop
	}
	ws.mRows[a] = row
	ws.rowSupp = append(ws.rowSupp, a)
}
