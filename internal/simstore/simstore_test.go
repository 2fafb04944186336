package simstore

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// randSym returns a random symmetric n×n matrix.
func randSym(rng *rand.Rand, n int) *matrix.Dense {
	m := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// exactStores builds a dense and a packed store holding the same
// symmetric content.
func exactStores(src *matrix.Dense) (*Dense, *Packed) {
	d := WrapDense(src.Clone())
	p := NewPacked(src.Rows)
	p.SetFromDense(src)
	return d, p
}

// Packed must agree with dense on every access path when both hold the
// same symmetric content and receive the same mutation stream.
func TestPackedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 17
	d, p := exactStores(randSym(rng, n))

	// A mutation stream through the SimStore surface: AddSym everywhere
	// (the incremental write-back shape), including diagonals.
	for step := 0; step < 200; step++ {
		i, j, v := rng.Intn(n), rng.Intn(n), rng.NormFloat64()
		d.AddSym(i, j, v)
		p.AddSym(i, j, v)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d.At(i, j) != p.At(i, j) {
				t.Fatalf("At(%d,%d): dense %v, packed %v", i, j, d.At(i, j), p.At(i, j))
			}
		}
	}
	// Row, ConcurrentRow and UpperRow all agree.
	for i := 0; i < n; i++ {
		drow, prow := d.Row(i), p.Row(i)
		crow := p.ConcurrentRow(i)
		for j := 0; j < n; j++ {
			if drow[j] != prow[j] || drow[j] != crow[j] {
				t.Fatalf("row %d col %d: dense %v packed %v concurrent %v", i, j, drow[j], prow[j], crow[j])
			}
		}
		du, pu := d.UpperRow(i), p.UpperRow(i)
		if len(du) != len(pu) {
			t.Fatalf("UpperRow(%d) lengths %d vs %d", i, len(du), len(pu))
		}
		for k := range du {
			if du[k] != pu[k] {
				t.Fatalf("UpperRow(%d)[%d]: %v vs %v", i, k, du[k], pu[k])
			}
		}
	}
	// ToDense round-trips.
	if diff := matrix.MaxAbsDiff(d.ToDense(), p.ToDense()); diff != 0 {
		t.Fatalf("ToDense differs by %v", diff)
	}
}

// AddSym's diagonal contract: two sequential adds, ((x+v)+v), on every
// backend — the bit pattern the dense write-back always produced.
func TestAddSymDiagonalTwoSequentialAdds(t *testing.T) {
	const x, v = 0.1, 0.3 // (x+v)+v != x+2v in float64
	want := (x + v) + v
	for _, s := range []cellStore{NewDense(3), NewPacked(3)} {
		s.Set(1, 1, x)
		s.AddSym(1, 1, v)
		if got := s.At(1, 1); got != want {
			t.Fatalf("%s diagonal AddSym = %v, want %v", s.Backend(), got, want)
		}
	}
}

// AddNodes must preserve old scores and initialize new diagonals.
func TestAddNodesExtendsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, extra, diag = 9, 4, 0.4
	src := randSym(rng, n)
	d, p := exactStores(src)
	for _, grown := range []Store{d.AddNodes(extra, diag), p.AddNodes(extra, diag)} {
		if grown.N() != n+extra {
			t.Fatalf("%s AddNodes size %d, want %d", grown.Backend(), grown.N(), n+extra)
		}
		for i := 0; i < n+extra; i++ {
			for j := 0; j < n+extra; j++ {
				want := 0.0
				switch {
				case i < n && j < n:
					want = src.At(i, j)
				case i == j:
					want = diag
				}
				if got := grown.At(i, j); got != want {
					t.Fatalf("%s grown At(%d,%d) = %v, want %v", grown.Backend(), i, j, got, want)
				}
			}
		}
	}
}

// The packed payload must come in at about half the dense bytes — the
// point of the backend. At n = 2000 the acceptance bar is ≤ 55%.
func TestPackedMemBytesHalvesDense(t *testing.T) {
	const n = 2000
	d, p := NewDense(n), NewPacked(n)
	ratio := float64(p.MemBytes()) / float64(d.MemBytes())
	if ratio > 0.55 {
		t.Fatalf("packed/dense store bytes = %.4f at n=%d, want ≤ 0.55 (packed %d, dense %d)",
			ratio, n, p.MemBytes(), d.MemBytes())
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendDense, true},
		{"dense", BackendDense, true},
		{"packed", BackendPacked, true},
		{"approx", BackendApprox, true},
		{"sparse", "", false},
	} {
		got, err := ParseBackend(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// The approx store has no materialized triangle, so the triangle scan
// panics if reached and ToDense refuses.
func TestApproxExactWritebacksPanic(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1)
	a, err := NewApprox(g, 0.6, 5, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"UpperRow": func() { a.UpperRow(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("approx %s did not panic", name)
				}
			}()
			f()
		}()
	}
	if a.ToDense() != nil {
		t.Fatal("approx ToDense should refuse materialization with nil")
	}
}

// The graph-level write surface works and matches a fresh rebuild:
// ApplyUpdate repairs, AddNodes grows in place, Recompute resamples —
// all landing on the same pure function of (graph, seed).
func TestApproxWritableSurface(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1)
	a, err := NewApprox(g, 0.6, 5, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	up := graph.Update{Edge: graph.Edge{From: 3, To: 1}, Insert: true}
	dirty := a.ApplyUpdate(up)
	if len(dirty) == 0 {
		t.Fatal("inserting an in-edge of a live node should dirty some walk rows")
	}
	if a.RepairGen() != 1 {
		t.Fatalf("repair generation = %d, want 1", a.RepairGen())
	}
	g.AddNodes(2)
	if a.AddNodes(2, 0.4) != Store(a) {
		t.Fatal("approx AddNodes grows in place and returns the receiver")
	}
	g.AddNodes(2)
	fresh, err := NewApprox(g, 0.6, 5, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if a.At(i, j) != fresh.At(i, j) {
				t.Fatalf("s(%d,%d): repaired %v vs rebuilt %v", i, j, a.At(i, j), fresh.At(i, j))
			}
		}
	}
	if repaired, _ := a.RepairStats(); repaired == 0 {
		t.Fatal("repair counters must advance")
	}
	if f := a.ResampleFraction(); f <= 0 || f > 1 {
		t.Fatalf("resample fraction %v outside (0,1]", f)
	}
}

// Approx stores walks, not a matrix: memory is O(n·(W·L + d)), far
// below the dense n² wall at serving sizes (here walk rows ≈ n·W·(L+1)
// ·4 bytes + postings vs 8n² dense — about an order of magnitude).
func TestApproxMemBytesLinear(t *testing.T) {
	const n = 4096
	g := graph.New(n)
	rng := rand.New(rand.NewSource(4))
	for g.M() < 3*n {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	a, err := NewApprox(g, 0.6, 10, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	dense := int64(n) * int64(n) * 8
	if a.MemBytes() >= dense/10 {
		t.Fatalf("approx store reports %d bytes; expected far below the dense %d", a.MemBytes(), dense)
	}
}
