package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/race"
)

// seedTransposedQ is the pre-workspace per-update Qᵀ build, exactly what
// the incremental maintenance replaces: row b holds 1/|I(a)| at each
// a ∈ O(b).
func seedTransposedQ(g *graph.DiGraph, din []int) *matrix.Dense {
	qt := matrix.NewDense(g.N(), g.N())
	for b := 0; b < g.N(); b++ {
		for _, a := range g.Out(b) {
			qt.Set(b, int(a), 1/float64(din[a]))
		}
	}
	return qt
}

// seedIncSRInPlace is the pre-workspace implementation of IncSRInPlace,
// kept as the reference the workspace-backed path must reproduce
// bit-for-bit. The only change from the seed code is that adjacency is
// iterated in sorted order (the graph's In/Out lists instead of the
// seed's unordered map walks) — the graph's sorted lists fix exactly
// that iteration order, and float accumulation is order-sensitive.
func seedIncSRInPlace(g *graph.DiGraph, s *matrix.Dense, up graph.Update, c float64, k int) (Stats, error) {
	n := g.N()
	if s.Rows != n || s.Cols != n {
		return Stats{}, &ErrBadUpdate{up, "similarity matrix size mismatch"}
	}
	ro, err := Decompose(g, up)
	if err != nil {
		return Stats{}, err
	}
	i, j := up.Edge.From, up.Edge.To
	dj := g.InDegree(j)

	din := make([]int, n)
	for v := 0; v < n; v++ {
		din[v] = g.InDegree(v)
	}
	qt := seedTransposedQ(g, din)

	b0 := newWsVec(n)
	b0.add(j, 1)
	srow := s.Row(i)
	for y := 0; y < n; y++ {
		if srow[y] > ZeroTol || srow[y] < -ZeroTol {
			for _, b := range g.Out(y) {
				if !b0.mark[b] {
					b0.add(int(b), 1)
				}
			}
		}
	}
	needF2 := (up.Insert && dj > 0) || (!up.Insert && dj > 1)
	if needF2 {
		jrow := s.Row(j)
		for y := 0; y < n; y++ {
			if (jrow[y] > ZeroTol || jrow[y] < -ZeroTol) && !b0.mark[y] {
				b0.add(y, 1)
			}
		}
	}

	si := s.Col(i)
	w := newWsVec(n)
	for _, b := range b0.supp {
		if din[b] == 0 {
			continue
		}
		var sum float64
		for _, y := range g.In(b) {
			sum += si[y]
		}
		w.add(b, sum/float64(din[b]))
	}
	lam := lambda(s, i, j, w.at(j), c)
	gam := newWsVec(n)
	gammaWs(gam, s, s.Row(j), w, lam, up, dj, c, b0)

	mRows := make([][]float64, n)
	var rowSupp []int
	colSupp := newWsVec(n)
	applyTerm := func(xi, eta *wsVec) {
		denseEta := len(eta.supp) > n/2
		for _, b := range eta.supp {
			if !colSupp.mark[b] {
				colSupp.add(b, 1)
			}
		}
		for _, a := range xi.supp {
			va := xi.vals[a]
			row := mRows[a]
			if row == nil {
				row = make([]float64, n)
				mRows[a] = row
				rowSupp = append(rowSupp, a)
			}
			if denseEta {
				for b, vb := range eta.vals {
					row[b] += va * vb
				}
			} else {
				for _, b := range eta.supp {
					row[b] += va * eta.vals[b]
				}
			}
		}
	}

	// v in the workspace layout, filled in the decompose support order
	// (i first, then I(j) ascending).
	vws := newWsVec(n)
	if up.Insert {
		vws.add(i, 1)
		if dj > 0 {
			f := 1 / float64(dj)
			for _, t := range g.In(j) {
				vws.add(int(t), -f)
			}
			vws.compact(ZeroTol)
		}
	} else {
		vws.add(i, -1)
		if dj > 1 {
			f := 1 / float64(dj)
			for _, t := range g.In(j) {
				vws.add(int(t), f)
			}
			vws.compact(ZeroTol)
		}
	}
	uv := ro.U[j]

	// Row b of Qᵀ is visited in ascending column order, the order the
	// seed's sparse rows stored it in.
	scatter := func(x, dst *wsVec) {
		for _, b := range x.supp {
			xb := x.vals[b]
			for a, v := range qt.Row(b) {
				if v != 0 {
					dst.add(a, xb*v)
				}
			}
		}
	}

	xi := newWsVec(n)
	xi.add(j, c)
	eta := gam
	applyTerm(xi, eta)

	xiNext, etaNext := newWsVec(n), newWsVec(n)
	var frontier float64
	peakAux := xi.nnz() + eta.nnz()
	for iter := 0; iter < k; iter++ {
		frontier += float64(xi.nnz()) * float64(eta.nnz())

		vxi := vws.dot(xi)
		xiNext.reset()
		scatter(xi, xiNext)
		for _, a := range xiNext.supp {
			xiNext.vals[a] *= c
		}
		xiNext.add(j, c*vxi*uv)
		xiNext.compact(ZeroTol)

		veta := vws.dot(eta)
		etaNext.reset()
		scatter(eta, etaNext)
		etaNext.add(j, veta*uv)
		etaNext.compact(ZeroTol)

		applyTerm(xiNext, etaNext)
		xi, xiNext = xiNext, xi
		eta, etaNext = etaNext, eta
		if a := xi.nnz() + eta.nnz(); a > peakAux {
			peakAux = a
		}
	}

	touched := newPairBitset(n)
	for _, a := range rowSupp {
		mrow := mRows[a]
		orow := s.Row(a)
		for _, b := range colSupp.supp {
			v := mrow[b]
			if v <= ZeroTol && v >= -ZeroTol {
				continue
			}
			orow[b] += v
			s.Data[b*n+a] += v
			touched.set(a, b)
			touched.set(b, a)
		}
	}

	iters := k
	if iters == 0 {
		iters = 1
	}
	return Stats{
		Iterations:    k,
		AffectedPairs: touched.count,
		FrontierArea:  frontier / float64(iters),
		AuxFloats:     len(rowSupp)*n + peakAux + len(touched.words) + w.nnz() + b0.nnz(),
	}, nil
}

// One persistent workspace folding a whole update stream must match the
// seed per-update implementation entry for entry, bit for bit — both the
// similarity matrices and the reported statistics.
func TestWorkspaceIncSRMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		n := 6 + rng.Intn(25)
		g := randGraph(rng, n, 3*n)
		c := 0.6
		k := 10
		sWs := batch.MatrixForm(g, c, k)
		sSeed := sWs.Clone()
		gSeed := g.Clone()
		ws := NewWorkspace(g)
		for step := 0; step < 12; step++ {
			up := randUpdate(rng, g)
			stWs, err := ws.IncSR(sWs, up, c, k)
			if err != nil {
				t.Fatal(err)
			}
			ws.ApplyUpdate(up)

			stSeed, err := seedIncSRInPlace(gSeed, sSeed, up, c, k)
			if err != nil {
				t.Fatal(err)
			}
			gSeed.Apply(up)

			if d := matrix.MaxAbsDiff(sWs, sSeed); d != 0 {
				t.Fatalf("trial %d step %d %v: workspace drifted %g from seed", trial, step, up, d)
			}
			// The seed predates DirtyRows; compare the scalar stats it
			// does report (DirtyRows has its own tests).
			if stWs.Iterations != stSeed.Iterations ||
				stWs.AffectedPairs != stSeed.AffectedPairs ||
				stWs.FrontierArea != stSeed.FrontierArea ||
				stWs.AuxFloats != stSeed.AuxFloats {
				t.Fatalf("trial %d step %d %v: stats %+v != seed %+v", trial, step, up, stWs, stSeed)
			}
		}
	}
}

// After any update stream applied through the workspace, Q read from the
// graph's in-lists must equal a Q built independently from the edge
// list, [Q]_{j,i} = 1/|I(j)| for each edge (i, j), in every cell.
func TestWorkspaceMaintenanceMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		n := 5 + rng.Intn(30)
		g := randGraph(rng, n, 2*n)
		ws := NewWorkspace(g)
		for step := 0; step < 40; step++ {
			ws.ApplyUpdate(randUpdate(rng, g))
		}
		edges := g.Edges()
		din := make([]int, n)
		for _, e := range edges {
			din[e.To]++
		}
		want := matrix.NewDense(n, n)
		for _, e := range edges {
			want.Set(e.To, e.From, 1/float64(din[e.To]))
		}
		got := g.BackwardTransition()
		if got.Rows != n || got.Cols != n {
			t.Fatalf("trial %d: BackwardTransition is %d×%d, want %d×%d", trial, got.Rows, got.Cols, n, n)
		}
		for c, v := range want.Data {
			if math.Float64bits(got.Data[c]) != math.Float64bits(v) {
				t.Fatalf("trial %d: BackwardTransition (%d, %d) = %v, want %v", trial, c/n, c%n, got.Data[c], v)
			}
		}
	}
}

// decompose must agree with the allocating Decompose (Theorem 1).
func TestWorkspaceDecomposeMatchesDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(12)
		g := randGraph(rng, n, 2*n)
		up := randUpdate(rng, g)
		ws := NewWorkspace(g)
		uv, err := ws.decompose(up)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := Decompose(g, up)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := uv, ro.U[up.Edge.To]; got != want {
			t.Fatalf("uv = %v, want %v", got, want)
		}
		for v := 0; v < n; v++ {
			if got, want := ws.vws.at(v), ro.V[v]; got != want {
				t.Fatalf("v[%d] = %v, want %v", v, got, want)
			}
		}
		// Invalid updates must leave an error and no partial state.
		bad := up
		bad.Insert = !bad.Insert
		ws2 := NewWorkspace(g)
		if _, err := ws2.decompose(bad); err == nil {
			t.Fatal("want error for inapplicable update")
		}
		if ws2.vws.nnz() != 0 {
			t.Fatal("failed decompose must not leave workspace state")
		}
	}
}

// The persistent workspace's Inc-uSR must match a fresh workspace per
// call across a stream, proving the dense scratch is fully scrubbed
// between updates.
func TestWorkspaceIncUSRMatchesPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 15
	g := randGraph(rng, n, 3*n)
	c, k := 0.6, 8
	sWs := batch.MatrixForm(g, c, k)
	sRef := sWs.Clone()
	gRef := g.Clone()
	ws := NewWorkspace(g)
	for step := 0; step < 10; step++ {
		up := randUpdate(rng, g)
		if _, err := ws.IncUSR(sWs, up, c, k); err != nil {
			t.Fatal(err)
		}
		ws.ApplyUpdate(up)
		if _, err := NewWorkspace(gRef).IncUSR(sRef, up, c, k); err != nil {
			t.Fatal(err)
		}
		gRef.Apply(up)
		if d := matrix.MaxAbsDiff(sWs, sRef); d != 0 {
			t.Fatalf("step %d: persistent Inc-uSR drifted %g from per-call", step, d)
		}
	}
}

// Steady-state updates through a warm workspace must not allocate, under
// both algorithms: Inc-SR, which the engine runs, and Inc-uSR, which the
// experiments fold. The toggle re-inserts and re-deletes the same edges
// so graph-list and support-slice capacities settle after the warm-up
// pass.
func TestWorkspaceIncSRZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("zero-allocation assertion skipped under -race: detector instrumentation allocates, so AllocsPerRun cannot prove the guarantee")
	}
	algorithms := []struct {
		name string
		run  func(*Workspace, SimStore, graph.Update, float64, int) (Stats, error)
	}{
		{"Inc-SR", (*Workspace).IncSR},
		{"Inc-uSR", (*Workspace).IncUSR},
	}
	for _, alg := range algorithms {
		rng := rand.New(rand.NewSource(71))
		n := 40
		g := randGraph(rng, n, 4*n)
		c, k := 0.6, 10
		s := batch.MatrixForm(g, c, k)
		ws := NewWorkspace(g)
		edges := g.Edges()[:4]
		toggle := func() {
			for _, e := range edges {
				for _, ins := range []bool{false, true} {
					up := graph.Update{Edge: e, Insert: ins}
					if _, err := alg.run(ws, s, up, c, k); err != nil {
						t.Fatal(err)
					}
					ws.ApplyUpdate(up)
				}
			}
		}
		toggle() // warm up pools and support capacities
		if allocs := testing.AllocsPerRun(20, toggle); allocs != 0 {
			t.Fatalf("warm %s allocated %v times per toggle pass, want 0", alg.name, allocs)
		}
	}
}
