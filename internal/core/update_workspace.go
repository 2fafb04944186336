package core

import (
	"repro/internal/graph"
	"repro/internal/matrix"
)

// Workspace is the persistent compute state of one engine over one
// graph: every scratch buffer the Inc-SR/Inc-uSR hot paths need. With a
// warm Workspace a unit update performs zero heap allocations.
//
// Q and Qᵀ are read in place from the graph's sorted adjacency: row j of
// Q is [Q]_{j,i} = 1/|I(j)| for i ∈ g.In(j), and row b of Qᵀ is
// [Qᵀ]_{b,a} = 1/|I(a)| for a ∈ g.Out(b), both ascending. An edge change
// is therefore just the graph's own sorted insert or delete. A Workspace
// reads the graph it was built over: construct it with NewWorkspace(g)
// and apply every later update through ApplyUpdate (or to g directly).
// It is not safe for concurrent use.
type Workspace struct {
	g *graph.DiGraph
	n int

	// vws (Theorem 1's v) and si (a copy of row i of S, which is
	// [S]_{·,i} by symmetry) serve both update algorithms and are always
	// present.
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

	// Inc-uSR dense scratch, allocated on first IncUSR call (the
	// experiments' baseline; the engine runs Inc-SR only).
	mDense                                 *matrix.Dense
	wD, gamD, xiD, etaD, xiNextD, etaNextD []float64
}

// NewWorkspace builds the persistent update state over g, whose
// adjacency it reads in place. O(n) time; the Inc-SR scratch follows on
// first use.
func NewWorkspace(g *graph.DiGraph) *Workspace {
	n := g.N()
	return &Workspace{
		g:         g,
		n:         n,
		vws:       newWsVec(n),
		si:        make([]float64, n),
		dirtyMark: make([]bool, n),
	}
}

// ensureIncSR allocates the Inc-SR-only state on first use: the sparse
// scratch vectors and the touched-pair bitset. Inc-uSR-only and
// batch-only workspaces never pay for any of it.
func (ws *Workspace) ensureIncSR() {
	if ws.b0 != nil {
		return
	}
	n := ws.n
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

// qRow returns row a of Q as read from the graph: the columns I(a),
// ascending, and their common weight 1/|I(a)|.
//
//simrank:noalloc
func (ws *Workspace) qRow(a int) (in []int32, w float64) {
	in = ws.g.In(a)
	if len(in) == 0 {
		return nil, 0
	}
	return in, 1 / float64(len(in))
}

// ApplyUpdate applies one valid unit update to the workspace's graph,
// which is all it takes to update Q and Qᵀ. Call it after IncSR/IncUSR,
// which read the pre-update state.
func (ws *Workspace) ApplyUpdate(up graph.Update) { ws.g.Apply(up) }

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
	in, w := ws.qRow(j)
	dj := len(in)
	v := ws.vws
	if up.Insert {
		if ws.g.HasEdge(i, j) {
			return 0, &ErrBadUpdate{up, "edge already present"}
		}
		if dj == 0 {
			v.add(i, 1)
			return 1, nil
		}
		v.add(i, 1)
		for _, t := range in {
			v.add(int(t), -w) // subtract [Q]_{j,t} = 1/d_j
		}
		v.compact(ZeroTol)
		return 1 / float64(dj+1), nil
	}
	if !ws.g.HasEdge(i, j) {
		return 0, &ErrBadUpdate{up, "edge absent"}
	}
	if dj == 1 {
		v.add(i, -1)
		return 1, nil
	}
	v.add(i, -1)
	for _, t := range in {
		v.add(int(t), w) // add [Q]_{j,t}
	}
	v.compact(ZeroTol)
	return 1 / float64(dj-1), nil
}

// scatterQ computes dst += Q·x for workspace vectors:
// [Q·x]_a = Σ_{b ∈ I(a)} x_b / d_a, accumulated along the rows of Qᵀ:
// row b is the graph's out-list O(b), and x_b is multiplied by each
// entry's weight 1/|I(a)|.
//
//simrank:noalloc
func (ws *Workspace) scatterQ(x, dst *wsVec) {
	for _, b := range x.supp {
		xb := x.vals[b]
		for _, a := range ws.g.Out(b) {
			_, w := ws.qRow(int(a))
			dst.add(int(a), xb*w)
		}
	}
}

// TransitionCSR returns the workspace's graph, which the batch kernel
// reads Q and Qᵀ from.
//
// Deprecated: pass the graph to batch.MatrixFormInto directly.
// TransitionCSR remains only for simbench's trace replay, which still
// calls it.
func (ws *Workspace) TransitionCSR() *graph.DiGraph { return ws.g }

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
