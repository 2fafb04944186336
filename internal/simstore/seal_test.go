package simstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/montecarlo"
)

// cellStore is the cell-write and buffer-recycling surface of the
// exact stores, which Store leaves to the concrete types.
type cellStore interface {
	Store
	Set(i, j int, v float64)
	Add(i, j int, v float64)
	AddSym(i, j int, v float64)
	RecyclesBufferOf(view View) bool
	AbandonBack()
}

// exactMakers builds an empty n-node store of each exact backend.
var exactMakers = []struct {
	name string
	mk   func(n int) cellStore
}{
	{"dense", func(n int) cellStore { return NewDense(n) }},
	{"packed", func(n int) cellStore { return NewPacked(n) }},
}

// fill writes a deterministic symmetric pattern through AddSym/Set.
func fill(t *testing.T, s cellStore, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := s.N()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s.Set(i, j, rng.Float64())
			if i != j {
				s.Set(j, i, s.At(i, j))
			}
		}
	}
}

// snapshotOf copies every entry for later comparison.
func snapshotOf(s View) []float64 {
	n := s.N()
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[i*n+j] = s.At(i, j)
		}
	}
	return out
}

func assertEquals(t *testing.T, s View, want []float64, label string) {
	t.Helper()
	n := s.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got := s.At(i, j); got != want[i*n+j] {
				t.Fatalf("%s: entry (%d,%d) = %v, want %v", label, i, j, got, want[i*n+j])
			}
		}
	}
}

// refStore is the plain reference the sealed writer is checked against:
// a full n×n array applying each write with the backend's semantics —
// dense writes the addressed entry, packed the one cell both mirror
// entries share.
type refStore struct {
	n      int
	packed bool
	m      []float64
}

func (r *refStore) set(i, j int, v float64) {
	r.m[i*r.n+j] = v
	if r.packed {
		r.m[j*r.n+i] = v
	}
}

func (r *refStore) add(i, j int, v float64) { r.set(i, j, r.m[i*r.n+j]+v) }

func (r *refStore) addSym(i, j int, v float64) {
	if r.packed {
		c := r.m[i*r.n+j] + v
		if i == j {
			c += v
		}
		r.set(i, j, c)
		return
	}
	r.m[i*r.n+j] += v
	r.m[j*r.n+i] += v
}

// Sealed views must be frozen at seal time while the writer keeps
// mutating, and the writer must read exactly what a plain array given
// the same writes holds — across seal/mutate rounds whose flips re-sync
// a logged handful of cells, copy everything after an abandon or an
// overrun log, or follow a full rewrite, for both exact backends and
// every write primitive.
func TestSealIsolatesViews(t *testing.T) {
	for _, tc := range exactMakers {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{0, 1, 2, 7, 37, 130} {
				t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
					sealIsolatesViews(t, tc.mk, n, tc.name == "packed")
				})
			}
		})
	}
}

func sealIsolatesViews(t *testing.T, mk func(n int) cellStore, n int, packed bool) {
	s := mk(n)
	rng := rand.New(rand.NewSource(int64(2 + n)))
	ref := &refStore{n: n, packed: packed, m: make([]float64, n*n)}
	write := func() {
		i, j := rng.Intn(n), rng.Intn(n)
		if rng.Intn(4) == 0 {
			j = i
		}
		v := rng.NormFloat64()
		switch rng.Intn(3) {
		case 0:
			s.Set(i, j, v)
			ref.set(i, j, v)
		case 1:
			s.Add(i, j, v)
			ref.add(i, j, v)
		default:
			s.AddSym(i, j, v)
			ref.addSym(i, j, v)
		}
	}
	writes := func(k int) {
		for ; n > 0 && k > 0; k-- {
			write()
		}
	}
	// Recompute over a random graph is both stores' full rewrite; a
	// never-sealed store computes what it must leave behind.
	g := graph.New(n)
	for k := 0; k < 3*n; k++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	prm := Params{C: 0.6, K: 4}
	fresh := mk(n)
	fresh.Recompute(g, nil, prm)
	rewritten := snapshotOf(fresh)

	type sealed struct {
		view View
		want []float64
	}
	var views []sealed
	for round := 0; round < 40; round++ {
		views = append(views, sealed{s.Seal(), append([]float64(nil), ref.m...)})
		// The facade's busy-reader move: a kept view that pins the buffer
		// the next flip would recycle has either drained (stop checking
		// it, so the flip re-syncs logged cells) or still has a reader
		// (abandon the buffer, so the flip copies everything).
		kept := views[:0]
		for _, sv := range views {
			if !s.RecyclesBufferOf(sv.view) || rng.Intn(2) == 0 {
				kept = append(kept, sv)
			}
		}
		views = kept
		for _, sv := range views {
			if s.RecyclesBufferOf(sv.view) {
				s.AbandonBack()
				break
			}
		}
		switch {
		case round%13 == 5:
			// A burst past the log bound: the next flip copies everything.
			writes(n*n/4 + 2)
		case round%11 == 7:
			// A full rewrite, straight after the seal or after a few
			// writes.
			writes(rng.Intn(3))
			s.Recompute(g, nil, prm)
			copy(ref.m, rewritten)
		default:
			writes(1 + rng.Intn(12))
		}
		assertEquals(t, s, ref.m, fmt.Sprintf("writer after round %d", round))
		for vi, sv := range views {
			assertEquals(t, sv.view, sv.want, fmt.Sprintf("view %d after round %d", vi, round))
		}
	}
	// UpperRow and ConcurrentRow on sealed views agree with At.
	v := s.Seal()
	for i := 0; i < n; i++ {
		row := v.ConcurrentRow(i)
		up := v.UpperRow(i)
		for j := 0; j < n; j++ {
			if row[j] != v.At(i, j) {
				t.Fatalf("ConcurrentRow(%d)[%d] mismatch", i, j)
			}
		}
		for j := i; j < n; j++ {
			if up[j-i] != v.At(i, j) {
				t.Fatalf("UpperRow(%d)[%d] mismatch", i, j-i)
			}
		}
	}
}

// An exact store keeps flipping between exactly two buffers: after the
// first flip, further seal/mutate rounds must not allocate new buffers,
// only re-sync the written cells.
func TestDenseDoubleBufferReuse(t *testing.T) {
	for _, tc := range exactMakers {
		t.Run(tc.name, func(t *testing.T) {
			const n = 16
			s := tc.mk(n)
			fill(t, s, 3)
			seen := map[*float64]bool{}
			for round := 0; round < 8; round++ {
				s.Seal()
				s.AddSym(round%n, (round*3)%n, 1.5)
				seen[&s.UpperRow(0)[0]] = true
			}
			if len(seen) != 2 {
				t.Fatalf("%s writer cycled %d distinct buffers, want exactly 2", tc.name, len(seen))
			}
		})
	}
}

// AbandonBack must orphan the second buffer: the next flip gets a fresh
// one, and the sealed view that pinned the old buffer stays intact.
func TestDenseAbandonBack(t *testing.T) {
	const n = 8
	d := NewDense(n)
	fill(t, d, 4)
	v1 := d.Seal()
	w1 := snapshotOf(d)
	d.AddSym(1, 2, 9)
	d.Seal()
	d.AbandonBack() // pretend v1's buffer is still pinned by a reader
	d.AddSym(3, 4, 7)
	assertEquals(t, v1, w1, "abandoned view")
	if got := d.At(3, 4); got == w1[3*n+4] {
		t.Fatal("writer write lost after abandon")
	}
}

// A full rewrite of a sealed dense store (Recompute) must leave the
// sealed view frozen, give the writer exactly what a never-sealed store
// computes, and the next seal/flip round must carry the rewrite rather
// than the pre-rewrite rows.
func TestDenseWritableMatrixRewrite(t *testing.T) {
	const n = 9
	g := graph.New(n)
	for k := 0; k < 3*n; k++ {
		g.AddEdge(k%n, (k*5+1)%n)
	}
	prm := Params{C: 0.6, K: 4}
	fresh := NewDense(n)
	fresh.Recompute(g, nil, prm)
	want := snapshotOf(fresh)

	d := NewDense(n)
	fill(t, d, 5)
	v := d.Seal()
	w := snapshotOf(d)
	d.Recompute(g, nil, prm)
	assertEquals(t, v, w, "sealed view after rewrite")
	assertEquals(t, d, want, "writer after rewrite")
	// Next seal/flip round must carry the rewrite, not stale rows.
	d.Seal()
	d.AddSym(0, 1, 0.5)
	want[0*n+1] += 0.5
	want[1*n+0] += 0.5
	assertEquals(t, d, want, "writer after post-rewrite flip")
}

// rewrite on a sealed dense store swaps buffers without the syncing
// copy; once the caller has overwritten every cell, the sealed view must
// be untouched, the writer must see the rewrite, and the next flip must
// copy it whole — the log holds none of the rewritten cells.
func TestDenseWritableMatrixDiscard(t *testing.T) {
	const n = 9
	d := NewDense(n)
	fill(t, d, 6)
	v := d.Seal()
	w := snapshotOf(d)
	d.rewrite()
	buf := d.m.Data
	// Contract: every cell must be rewritten before any read.
	for i := range buf {
		buf[i] = float64(i)
	}
	assertEquals(t, v, w, "sealed view after discard rewrite")
	if d.At(0, 1) != 1 {
		t.Fatalf("rewrite not visible to writer: %v", d.At(0, 1))
	}
	// The next seal/flip round must carry the rewrite, not pre-rewrite
	// rows left behind by the skipped sync.
	d.Seal()
	d.AddSym(0, 0, 0.5)
	if d.At(2, 2) != float64(2*n+2) {
		t.Fatalf("post-discard flip lost data: %v", d.At(2, 2))
	}
	// Without a pending seal it must keep the live buffer.
	cur := &d.m.Data[0]
	d.rewrite()
	if &d.m.Data[0] != cur || d.At(2, 2) != float64(2*n+2) {
		t.Fatal("no-cow discard swapped the live buffer")
	}
}

// writeMethods names every method that writes a store, a graph or a
// walk index. Row is among them: on a writer it may fill scratch that
// concurrent readers would race on.
var writeMethods = map[string]bool{
	"Set": true, "Add": true, "AddSym": true, "ApplyUpdate": true,
	"AddNodes": true, "AddEdge": true, "SetFromDense": true,
	"SetRepairGen": true, "AbandonBack": true, "Row": true,
	"Update": true, "Recompute": true,
}

// A sealed view is immutable by its type: nothing a Seal returns has a
// write method, so a write to a view does not compile. Each writer does
// have write methods, so the check cannot pass on an empty list.
func TestSealedViewsHaveNoWriteMethods(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	a, err := NewApprox(g, 0.6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := montecarlo.NewIndex(g, 0.6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dense, packed := NewDense(3), NewPacked(3)
	for _, tc := range []struct {
		name         string
		writer, view any
	}{
		{"dense", dense, dense.Seal()},
		{"packed", packed, packed.Seal()},
		{"approx", a, a.Seal()},
		{"walkindex", ix, ix.Seal()},
		{"graph", g, g.Seal()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			writesOf := func(v any) (names []string) {
				typ := reflect.TypeOf(v)
				for i := range typ.NumMethod() {
					if name := typ.Method(i).Name; writeMethods[name] {
						names = append(names, name)
					}
				}
				return names
			}
			if got := writesOf(tc.view); len(got) > 0 {
				t.Errorf("sealed %T has write methods %v", tc.view, got)
			}
			if len(writesOf(tc.writer)) == 0 {
				t.Errorf("writer %T has none of the write methods", tc.writer)
			}
		})
	}
}

// Packed layout: every (i, j) must land where the flat upper-triangular
// formula says.
func TestPackedChunkLayout(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 129, 200} {
		p := NewPacked(n)
		rng := rand.New(rand.NewSource(int64(n)))
		want := make([]float64, n*(n+1)/2)
		for k := range want {
			want[k] = rng.Float64()
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				p.Set(i, j, want[p.idx(i, j)])
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if p.At(i, j) != want[p.idx(i, j)] {
					t.Fatalf("n=%d: At(%d,%d) misplaced", n, i, j)
				}
			}
		}
		// Row segments must be contiguous for UpperRow aliasing.
		for i := 0; i < n; i++ {
			seg := p.UpperRow(i)
			if len(seg) != n-i {
				t.Fatalf("n=%d: UpperRow(%d) len %d", n, i, len(seg))
			}
		}
	}
}

// Approx sealing: the writer stays writable, the view is immutable and
// keeps serving its frozen walk set while the writer repairs past it
// (per-node copy-on-write on the walk rows).
func TestApproxSealedViewSurvivesRepairs(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1)
	a, err := NewApprox(g, 0.6, 5, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := a.Seal()
	frozen := v.At(1, 3)
	up := graph.Update{Edge: graph.Edge{From: 0, To: 3}, Insert: true}
	a.ApplyUpdate(up)
	if got := v.At(1, 3); got != frozen {
		t.Fatalf("sealed view drifted under repair: %v vs %v", got, frozen)
	}
	if a.At(1, 3) <= 0 {
		t.Fatal("writer should now score s(1,3) > 0 (common parent 0)")
	}
}
