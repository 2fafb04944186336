package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func symRand(rng *rand.Rand, n int) *matrix.Dense {
	m := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestTopKPairs(t *testing.T) {
	s := matrix.NewDenseFrom([][]float64{
		{1, 0.5, 0.2},
		{0.5, 1, 0.9},
		{0.2, 0.9, 1},
	})
	top := TopKPairs(s, 2)
	if len(top) != 2 {
		t.Fatalf("len=%d", len(top))
	}
	if top[0].A != 1 || top[0].B != 2 || top[0].Score != 0.9 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].A != 0 || top[1].B != 1 {
		t.Fatalf("top[1] = %+v", top[1])
	}
}

func TestTopKPairsSkipsZerosAndDiagonal(t *testing.T) {
	s := matrix.Identity(4)
	if got := TopKPairs(s, 10); len(got) != 0 {
		t.Fatalf("identity should have no off-diagonal pairs, got %v", got)
	}
}

func TestTopKPairsTieBreakDeterministic(t *testing.T) {
	s := matrix.NewDense(3, 3)
	s.Set(0, 1, 0.5)
	s.Set(1, 0, 0.5)
	s.Set(0, 2, 0.5)
	s.Set(2, 0, 0.5)
	top := TopKPairs(s, 2)
	if top[0].B != 1 || top[1].B != 2 {
		t.Fatalf("tie break unstable: %+v", top)
	}
}

func TestNDCGPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	s := symRand(rng, 8)
	if g := NDCG(s, s, 10); math.Abs(g-1) > 1e-12 {
		t.Fatalf("NDCG(x,x) = %v, want 1", g)
	}
}

func TestNDCGDegradesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ideal := symRand(rng, 12)
	noisy := ideal.Clone()
	// Scramble: replace scores with fresh random values.
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			v := rng.Float64()
			noisy.Set(i, j, v)
			noisy.Set(j, i, v)
		}
	}
	g := NDCG(noisy, ideal, 10)
	if g >= 1 {
		t.Fatalf("scrambled ranking should lose NDCG, got %v", g)
	}
	if g < 0 || math.IsNaN(g) {
		t.Fatalf("NDCG out of range: %v", g)
	}
}

func TestNDCGEmptyIdeal(t *testing.T) {
	if g := NDCG(matrix.Identity(3), matrix.Identity(3), 5); g != 1 {
		t.Fatalf("empty ideal NDCG = %v", g)
	}
}

func TestMaxAndMeanError(t *testing.T) {
	a := matrix.NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := matrix.NewDenseFrom([][]float64{{1, 2.5}, {3, 3}})
	if MeanAbsError(a, b) != 1.5/4 {
		t.Fatalf("MeanAbsError = %v", MeanAbsError(a, b))
	}
}

func TestAffectedAndPrunedRatio(t *testing.T) {
	if AffectedRatio(25, 10) != 25 {
		t.Fatalf("AffectedRatio = %v", AffectedRatio(25, 10))
	}
	if PrunedRatio(25, 10) != 75 {
		t.Fatalf("PrunedRatio = %v", PrunedRatio(25, 10))
	}
	if AffectedRatio(5, 0) != 0 {
		t.Fatal("zero nodes should give 0")
	}
}

// Property: NDCG is within [0, 1+ε] for random matrices (it can only reach
// 1 when the rankings' gains coincide).
func TestQuickNDCGRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		got, ideal := symRand(rng, n), symRand(rng, n)
		g := NDCG(got, ideal, 1+rng.Intn(15))
		return g >= 0 && g <= 1+1e-9 && !math.IsNaN(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopKPairs returns pairs in non-increasing score order.
func TestQuickTopKSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := symRand(rng, 3+rng.Intn(10))
		top := TopKPairs(s, 1+rng.Intn(20))
		for i := 1; i < len(top); i++ {
			if top[i].Score > top[i-1].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
