package simstore

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// A packed store boots and recomputes straight from the kernel's row
// lists, and must hold the dense store's S cell for cell: at boot, and
// after a Recompute that deletes edges on a store that was sealed and
// written, so the triangle it rewrites holds cells the new S leaves +0.
func TestPackedKernelMatchesDense(t *testing.T) {
	for _, g := range []*graph.DiGraph{gen.PrefAttach(300, 4, 1), gen.ER(200, 800, 2)} {
		for _, workers := range []int{1, 3} {
			prm := Params{C: 0.6, K: 10, Workers: workers}
			ds, _ := New(BackendDense, g.Clone(), prm, 0, 0)
			pg := g.Clone()
			ps, _ := New(BackendPacked, pg, prm, 0, 0)
			d, p := ds.(*Dense), ps.(*Packed)
			same := func(when string) {
				t.Helper()
				for i := 0; i < g.N(); i++ {
					for j := i; j < g.N(); j++ {
						if d.At(i, j) != p.At(i, j) {
							t.Fatalf("n=%d workers=%d %s: (%d, %d) dense %v, packed %v", g.N(), workers, when, i, j, d.At(i, j), p.At(i, j))
						}
					}
				}
			}
			same("boot")
			// Dirty a +0 cell of a row the kernel keeps sparse (a node
			// without in-links holds only its diagonal), so only the
			// Recompute's clear can restore it.
			p.Seal()
			for a := range g.N() {
				if len(g.In(a)) == 0 {
					p.Set(a, (a+1)%g.N(), 0.5)
					break
				}
			}
			var ups []graph.Update
			for _, e := range g.Edges()[:5] {
				ups = append(ups, graph.Update{Edge: e})
			}
			dg := g.Clone()
			d.Recompute(dg, ups, prm)
			p.Recompute(pg, ups, prm)
			same("recompute")
		}
	}
}

// A dense Recompute on simbench's ingest graph keeps only S's and T's
// supports beside the store: row lists and a few whole rows, where an
// n×n T and a support bitmap per row of S and of T took 33 MiB.
func TestDenseRecomputeScratchBytes(t *testing.T) {
	g := gen.PrefAttach(2048, 4, 1)
	d := NewDense(g.N())
	d.Recompute(g, nil, Params{C: 0.6, K: 15, Workers: 1})
	if got := d.kernel.Bytes(); got >= 4<<20 {
		t.Fatalf("kernel scratch holds %d bytes after a dense Recompute, want < 4 MiB", got)
	}
}

// A packed boot allocates its triangle and the kernel's row lists, and
// no n×n buffer: on read_mostly's graph, less than 8 MiB beside the
// 16 MB triangle.
func TestPackedBootAllocatesNoDenseBuffer(t *testing.T) {
	g := gen.PrefAttach(2000, 4, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(BackendPacked, g, Params{C: 0.6, K: 15, Workers: 2}, 0, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	tri := int64(len(s.(*Packed).tri)) * 8
	if beside := int64(after.TotalAlloc-before.TotalAlloc) - tri; beside >= 8<<20 {
		t.Fatalf("packed boot allocated %d bytes beside its %d-byte triangle, want < 8 MiB", beside, tri)
	}
}

// BenchmarkStoreBoot times New for the two exact boots simbench
// measures in setup_s: ingest's dense store at one worker and
// read_mostly's packed store at two.
func BenchmarkStoreBoot(b *testing.B) {
	for _, bc := range []struct {
		backend Backend
		n       int
		workers int
	}{
		{BackendDense, 2048, 1},
		{BackendPacked, 2000, 2},
	} {
		g := gen.PrefAttach(bc.n, 4, 1)
		prm := Params{C: 0.6, K: 15, Workers: bc.workers}
		b.Run(fmt.Sprintf("%s/PrefAttach(%d,4,1)/workers=%d", bc.backend, bc.n, bc.workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := New(bc.backend, g, prm, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
