package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot mismatch")
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v", y)
		}
	}
}

func TestAxpyZeroAlpha(t *testing.T) {
	y := []float64{1, 2}
	Axpy(0, []float64{100, 100}, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatal("Axpy with a=0 must be a no-op")
	}
}

func TestScaleVec(t *testing.T) {
	x := []float64{1, -2}
	ScaleVec(-3, x)
	if x[0] != -3 || x[1] != 6 {
		t.Fatalf("ScaleVec = %v", x)
	}
}

func TestOuter(t *testing.T) {
	m := Outer([]float64{1, 2}, []float64{3, 4, 5})
	want := NewDenseFrom([][]float64{{3, 4, 5}, {6, 8, 10}})
	if MaxAbsDiff(m, want) != 0 {
		t.Fatalf("Outer = %v", m.Data)
	}
}

func TestAddOuter(t *testing.T) {
	m := Identity(2)
	AddOuter(m, 2, []float64{1, 0}, []float64{0, 1})
	if m.At(0, 1) != 2 || m.At(0, 0) != 1 {
		t.Fatalf("AddOuter = %v", m.Data)
	}
}

func TestUnitVec(t *testing.T) {
	e := UnitVec(4, 2)
	for i, v := range e {
		want := 0.0
		if i == 2 {
			want = 1
		}
		if v != want {
			t.Fatalf("UnitVec = %v", e)
		}
	}
}

func TestNorms2Inf(t *testing.T) {
	x := []float64{3, -4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
}

func TestCloneSubVec(t *testing.T) {
	x := []float64{1, 2}
	c := CloneVec(x)
	c[0] = 9
	if x[0] != 1 {
		t.Fatal("CloneVec aliased")
	}
	d := SubVec([]float64{5, 7}, []float64{2, 3})
	if d[0] != 3 || d[1] != 4 {
		t.Fatalf("SubVec = %v", d)
	}
}

// Property: outer(x,y) equals x as column times y as row via Mul.
func TestQuickOuterEqualsMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(8), 1+rng.Intn(8)
		x, y := make([]float64, n), make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		xc, yr := NewDense(n, 1), NewDense(1, m)
		copy(xc.Data, x)
		copy(yr.Data, y)
		return MaxAbsDiff(Outer(x, y), Mul(xc, yr)) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cauchy–Schwarz |xᵀy| <= ‖x‖‖y‖.
func TestQuickCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
