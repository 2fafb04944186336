package simrank

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// requireSymmetric fails unless e holds an exactly symmetric S:
// Similarity(a, b) == Similarity(b, a) for every pair, and Similarities()
// equal to its own transpose bit for bit.
func requireSymmetric(t *testing.T, e *Engine, when string) {
	t.Helper()
	n := e.N()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if x, y := e.Similarity(a, b), e.Similarity(b, a); x != y {
				t.Fatalf("after %s: s(%d,%d) = %v, s(%d,%d) = %v", when, a, b, x, b, a, y)
			}
		}
	}
	s := e.Similarities()
	tr := s.T()
	for i, v := range s.Data {
		if v != tr.Data[i] {
			t.Fatalf("after %s: Similarities() differs from its transpose at (%d,%d)", when, i/n, i%n)
		}
	}
}

// Every exact store holds an exactly symmetric S on every write path:
// Inc-SR reads row i where the paper reads the column [S]_{·,i}, which is
// only right when the two triangles agree bit for bit.
func TestExactStoresStaySymmetric(t *testing.T) {
	t.Run("restore-asymmetric-dense", testRestoreMirrorsAsymmetricDense)
	for _, backend := range []Backend{BackendDense, BackendPacked} {
		t.Run(string(backend), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			g := randTestGraph(rng, 40, 160)
			model := &streamModel{n: g.N(), edges: make(map[Edge]bool)}
			for _, e := range g.Edges() {
				model.edges[e] = true
			}
			opts := Options{K: 12, Workers: 2, Backend: backend}
			e, err := NewEngine(g.N(), g.Edges(), opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSymmetric(t, e, "boot")

			for i := 0; i < 20; i++ {
				if _, err := e.Apply(model.randomUpdate(rng)); err != nil {
					t.Fatal(err)
				}
			}
			requireSymmetric(t, e, "Apply")

			batch := func(size int) {
				ups := make([]Update, size)
				for i := range ups {
					ups[i] = model.randomUpdate(rng)
				}
				if err := e.ApplyBatch(ups); err != nil {
					t.Fatal(err)
				}
			}
			batch(3)
			requireSymmetric(t, e, "ApplyBatch below the recompute crossover")
			// The default crossover is 0.15·|E|; a batch past it recomputes,
			// which a fresh engine over the same edges reproduces exactly.
			batch(int(math.Ceil(0.15*float64(e.M()))) + 1)
			requireSymmetric(t, e, "ApplyBatch above the recompute crossover")
			fresh, err := NewEngine(model.n, model.edgeList(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := matrix.MaxAbsDiff(e.Similarities(), fresh.Similarities()); d != 0 {
				t.Fatalf("the large batch did not recompute: %g from a fresh engine", d)
			}

			e.Recompute()
			requireSymmetric(t, e, "Recompute")

			first, err := e.AddNodes(3)
			if err != nil {
				t.Fatal(err)
			}
			model.n += 3
			requireSymmetric(t, e, "AddNodes")
			for _, up := range []Update{
				{Edge: Edge{From: 0, To: first}, Insert: true},
				{Edge: Edge{From: first, To: 1}, Insert: true},
				{Edge: Edge{From: first + 1, To: first}, Insert: true},
			} {
				if _, err := e.Apply(up); err != nil {
					t.Fatal(err)
				}
			}
			requireSymmetric(t, e, "Apply on added nodes")

			var buf bytes.Buffer
			if err := e.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			requireSymmetric(t, restored, "restore")
		})
	}
}

// A dense snapshot written before exact symmetry carries two triangles
// that disagree in the last bits. Restore mirrors the file's upper
// triangle onto the lower one, and updates keep the result symmetric.
func testRestoreMirrorsAsymmetricDense(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := randTestGraph(rng, 20, 70)
	data := snapshotBytes(t, g.N(), g.Edges(), Options{K: 10})
	n := g.N()
	payload := 44 + 8*g.M() // v3 header, then the edges
	cell := func(a, b int) []byte { return data[payload+8*(a*n+b):] }
	upper := matrix.NewDense(n, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(cell(a, b)))
			upper.Set(a, b, v)
			// A last-bit disagreement, as a build without the mirror left.
			binary.LittleEndian.PutUint64(cell(b, a), math.Float64bits(math.Nextafter(v, 1)))
		}
	}
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))

	e, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if got, want := e.Similarity(b, a), upper.At(a, b); got != want {
				t.Fatalf("restored s(%d,%d) = %v, want the file's s(%d,%d) = %v", b, a, got, a, b, want)
			}
		}
	}
	requireSymmetric(t, e, "restore of an asymmetric dense file")
	for _, ed := range absentEdges(g, 4, 33) {
		if _, err := e.Insert(ed.From, ed.To); err != nil {
			t.Fatal(err)
		}
	}
	requireSymmetric(t, e, "Apply after the restore")
}
