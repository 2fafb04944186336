package simstore

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// cellStore is the cell-write surface of the exact stores, which Store
// leaves to the concrete types.
type cellStore interface {
	Store
	Set(i, j int, v float64)
	Add(i, j int, v float64)
	AddSym(i, j int, v float64)
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
func snapshotOf(s Store) []float64 {
	n := s.N()
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[i*n+j] = s.At(i, j)
		}
	}
	return out
}

func assertEquals(t *testing.T, s Store, want []float64, label string) {
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

// Sealed views must be frozen at seal time while the writer keeps
// mutating — across repeated seal/mutate rounds, for both exact
// backends, and regardless of which write primitive is used.
func TestSealIsolatesViews(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(n int) cellStore
	}{
		{"dense", func(n int) cellStore { return NewDense(n) }},
		{"packed", func(n int) cellStore { return NewPacked(n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 37 // > 1 packed chunk once squared? small but multi-row
			s := tc.mk(n)
			fill(t, s, 1)

			type sealed struct {
				view Store
				want []float64
			}
			var views []sealed
			rng := rand.New(rand.NewSource(2))
			for round := 0; round < 6; round++ {
				v := s.Seal()
				views = append(views, sealed{v, snapshotOf(s)})
				// This test keeps every view alive, so play the facade's
				// busy-reader move on dense: the buffer the next flip would
				// recycle is still pinned (by views[len-2]), so abandon it.
				// Packed views share chunks that are never written in place
				// and need no such step.
				if d, ok := s.(*Dense); ok && len(views) > 1 {
					d.AbandonBack()
				}
				// Mutate a scattering of cells, reporting dirty rows as the
				// engine would.
				var dirty []int
				for w := 0; w < 25; w++ {
					i, j := rng.Intn(n), rng.Intn(n)
					s.AddSym(i, j, rng.NormFloat64())
					dirty = append(dirty, i, j)
				}
				if d, ok := s.(*Dense); ok {
					d.MarkRowsDirty(dirty)
				}
				// Every sealed view so far must still read its frozen state.
				for vi, sv := range views {
					assertEquals(t, sv.view, sv.want, tc.name+" view "+string(rune('0'+vi)))
				}
			}
			// The writer's own reads must always see the latest state.
			live := snapshotOf(s)
			v := s.Seal()
			assertEquals(t, v, live, tc.name+" final seal")
			// UpperRow and ConcurrentRow on sealed views agree with At.
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
		})
	}
}

// A dense store keeps flipping between exactly two buffers: after the
// first flip, further seal/mutate rounds must not allocate new matrices,
// only re-sync dirty rows.
func TestDenseDoubleBufferReuse(t *testing.T) {
	const n = 16
	d := NewDense(n)
	fill(t, d, 3)
	seen := map[*float64]bool{}
	buf := func() *float64 { return &d.m.Data[0] }
	for round := 0; round < 8; round++ {
		d.Seal()
		d.AddSym(round%n, (round*3)%n, 1.5)
		d.MarkRowsDirty([]int{round % n, (round * 3) % n})
		seen[buf()] = true
	}
	if len(seen) != 2 {
		t.Fatalf("dense writer cycled %d distinct buffers, want exactly 2", len(seen))
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
	d.MarkRowsDirty([]int{1, 2})
	d.Seal()
	d.AbandonBack() // pretend v1's buffer is still pinned by a reader
	d.AddSym(3, 4, 7)
	d.MarkRowsDirty([]int{3, 4})
	assertEquals(t, v1, w1, "abandoned view")
	if got := d.At(3, 4); got == w1[3*n+4] {
		t.Fatal("writer write lost after abandon")
	}
}

// Sealing must not change what a writer-side full rewrite produces:
// WritableMatrix + MarkAllRowsDirty is the recompute path.
func TestDenseWritableMatrixRewrite(t *testing.T) {
	const n = 9
	d := NewDense(n)
	fill(t, d, 5)
	v := d.Seal()
	w := snapshotOf(d)
	m := d.WritableMatrix()
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	d.MarkAllRowsDirty()
	assertEquals(t, v, w, "sealed view after rewrite")
	if d.At(0, 1) != 1 {
		t.Fatalf("rewrite not visible to writer: %v", d.At(0, 1))
	}
	// Next seal/flip round must carry the rewrite, not stale rows.
	d.Seal()
	d.AddSym(0, 0, 0.5)
	d.MarkRowsDirty([]int{0})
	if d.At(2, 2) != float64(2*n+2) {
		t.Fatalf("post-rewrite flip lost data: %v", d.At(2, 2))
	}
}

// The discard variant must preserve sealed views and writer-visible
// state exactly like the syncing flip — it only skips copying bytes the
// caller is about to overwrite.
func TestDenseWritableMatrixDiscard(t *testing.T) {
	const n = 9
	d := NewDense(n)
	fill(t, d, 6)
	v := d.Seal()
	w := snapshotOf(d)
	m := d.WritableMatrixDiscard()
	// Contract: every cell must be rewritten before any read.
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	d.MarkAllRowsDirty()
	assertEquals(t, v, w, "sealed view after discard rewrite")
	if d.At(0, 1) != 1 {
		t.Fatalf("rewrite not visible to writer: %v", d.At(0, 1))
	}
	// The next seal/flip round must carry the rewrite, not pre-rewrite
	// rows left behind by the skipped sync.
	d.Seal()
	d.AddSym(0, 0, 0.5)
	d.MarkRowsDirty([]int{0})
	if d.At(2, 2) != float64(2*n+2) {
		t.Fatalf("post-discard flip lost data: %v", d.At(2, 2))
	}
	// Without a pending seal it must hand back the live buffer directly.
	cur := d.WritableMatrixDiscard()
	if cur.At(2, 2) != float64(2*n+2) {
		t.Fatal("no-cow discard did not return the live buffer")
	}
}

// Writes to sealed views must panic loudly rather than corrupt readers.
func TestSealedViewWritesPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Store
	}{
		{"dense", func() Store { return NewDense(4).Seal() }},
		{"packed", func() Store { return NewPacked(4).Seal() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := tc.mk().(cellStore)
			for name, fn := range map[string]func(){
				"Set":    func() { v.Set(0, 1, 1) },
				"Add":    func() { v.Add(0, 1, 1) },
				"AddSym": func() { v.AddSym(0, 1, 1) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s on sealed view did not panic", name)
						}
					}()
					fn()
				}()
			}
		})
	}
}

// Packed chunking is pure layout: every (i, j) must land where the flat
// upper-triangular formula says, across sizes that straddle chunk
// boundaries.
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
		// Row segments must be chunk-contiguous for UpperRow aliasing.
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
	if v == Store(a) {
		t.Fatal("approx Seal must return a distinct sealed view, not the writer")
	}
	if v.Seal() != v {
		t.Fatal("sealing a sealed view must return the receiver")
	}
	frozen := v.At(1, 3)
	up := graph.Update{Edge: graph.Edge{From: 0, To: 3}, Insert: true}
	g.Apply(up)
	a.ApplyUpdate(up)
	if got := v.At(1, 3); got != frozen {
		t.Fatalf("sealed view drifted under repair: %v vs %v", got, frozen)
	}
	if a.At(1, 3) <= 0 {
		t.Fatal("writer should now score s(1,3) > 0 (common parent 0)")
	}
	// Mutating a sealed view must fail loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyUpdate on a sealed view did not panic")
		}
	}()
	v.(*Approx).ApplyUpdate(graph.Update{Edge: graph.Edge{From: 1, To: 2}, Insert: true})
}
