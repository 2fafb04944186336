package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSparseVecSetAddAt(t *testing.T) {
	v := NewSparseVec(5)
	v.Set(2, 1.5)
	v.Add(2, 0.5)
	if v.At(2) != 2 || v.NNZ() != 1 {
		t.Fatalf("v = %v", v.Val)
	}
	v.Add(2, -2) // cancels to zero → entry dropped
	if v.NNZ() != 0 || v.At(2) != 0 {
		t.Fatalf("cancellation not dropped: %v", v.Val)
	}
	v.Set(1, 1e-15) // below ZeroTol → dropped
	if v.NNZ() != 0 {
		t.Fatal("tiny entry should be dropped")
	}
}

func TestSparseVecDot(t *testing.T) {
	v := NewSparseVec(4)
	v.Set(0, 2)
	v.Set(3, -1)
	if v.Dot([]float64{1, 5, 5, 4}) != -2 {
		t.Fatalf("Dot = %v", v.Dot([]float64{1, 5, 5, 4}))
	}
}

func TestSparseVecDotSparse(t *testing.T) {
	a, b := NewSparseVec(5), NewSparseVec(5)
	a.Set(1, 2)
	a.Set(3, 3)
	b.Set(3, 4)
	b.Set(4, 9)
	if a.DotSparse(b) != 12 || b.DotSparse(a) != 12 {
		t.Fatal("DotSparse mismatch")
	}
}

func TestSparseVecScaleCloneDense(t *testing.T) {
	v := NewSparseVec(3)
	v.Set(1, 2)
	c := v.Clone()
	c.Scale(3)
	if v.At(1) != 2 || c.At(1) != 6 {
		t.Fatal("Clone/Scale broken")
	}
	c.Scale(0)
	if c.NNZ() != 0 {
		t.Fatal("Scale(0) should empty the vector")
	}
	d := v.Dense()
	if d[1] != 2 || d[0] != 0 || len(d) != 3 {
		t.Fatalf("Dense = %v", d)
	}
}

func TestSparseVecSupport(t *testing.T) {
	v := NewSparseVec(10)
	v.Set(7, 1)
	v.Set(2, 1)
	v.Set(5, 1)
	sup := v.Support()
	if len(sup) != 3 || sup[0] != 2 || sup[1] != 5 || sup[2] != 7 {
		t.Fatalf("Support = %v", sup)
	}
}

// Property: sparse dot equals dense dot.
func TestQuickSparseDotAgreesWithDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		v := NewSparseVec(n)
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				v.Set(i, rng.NormFloat64())
			}
			x[i] = rng.NormFloat64()
		}
		dense := v.Dense()
		var want float64
		for i := range dense {
			want += dense[i] * x[i]
		}
		diff := v.Dot(x) - want
		return diff < 1e-12 && diff > -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
