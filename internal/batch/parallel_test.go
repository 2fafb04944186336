package batch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestMatrixFormParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		g := randGraph(rng, 10+rng.Intn(30), 60+rng.Intn(60))
		seq := MatrixForm(g, 0.6, 8)
		for _, workers := range []int{1, 2, 4, 7} {
			par := matrixFormWorkers(g, 0.6, 8, workers)
			if d := matrix.MaxAbsDiff(seq, par); d != 0 {
				t.Fatalf("trial %d workers %d: parallel diverges by %g", trial, workers, d)
			}
		}
	}
}

func TestMatrixFormParallelDefaultsWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g := randGraph(rng, 20, 80)
	par := matrixFormWorkers(g, 0.8, 5, 0) // GOMAXPROCS
	seq := MatrixForm(g, 0.8, 5)
	if matrix.MaxAbsDiff(seq, par) != 0 {
		t.Fatal("default worker count diverges")
	}
}

func TestMatrixFormParallelMoreWorkersThanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := randGraph(rng, 3, 4)
	par := matrixFormWorkers(g, 0.6, 4, 64)
	seq := MatrixForm(g, 0.6, 4)
	if matrix.MaxAbsDiff(seq, par) != 0 {
		t.Fatal("worker clamp diverges")
	}
}

// Property: parallel result is bit-identical across worker counts.
func TestQuickParallelDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 5+rng.Intn(15), 30)
		a := matrixFormWorkers(g, 0.6, 6, 2)
		b := matrixFormWorkers(g, 0.6, 6, 5)
		return matrix.MaxAbsDiff(a, b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
