package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewDenseFrom(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("got %d×%d, want 3×2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("element mismatch: %v", m.Data)
	}
}

func TestNewDenseFromRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on ragged rows")
		}
	}()
	NewDenseFrom([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestSetAddAt(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("got %v, want 7.5", m.At(1, 2))
	}
}

func TestRowAliasesStorage(t *testing.T) {
	m := NewDense(2, 2)
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias storage")
	}
}

func TestColCopies(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col(1) = %v", c)
	}
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col must copy, not alias")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must be independent")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T dims %d×%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDense(rng, 7, 5)
	if MaxAbsDiff(m, m.T().T()) != 0 {
		t.Fatal("(Mᵀ)ᵀ != M")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{5, 6}, {7, 8}})
	p := Mul(a, b)
	want := NewDenseFrom([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(p, want) > 1e-15 {
		t.Fatalf("Mul = %v", p.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randDense(rng, 6, 6)
	if MaxAbsDiff(Mul(m, Identity(6)), m) != 0 {
		t.Fatal("M·I != M")
	}
	if MaxAbsDiff(Mul(Identity(6), m), m) != 0 {
		t.Fatal("I·M != M")
	}
}

func TestMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b, c := randDense(rng, 4, 5), randDense(rng, 5, 3), randDense(rng, 3, 6)
	l := Mul(Mul(a, b), c)
	r := Mul(a, Mul(b, c))
	if MaxAbsDiff(l, r) > 1e-12 {
		t.Fatalf("associativity violated: %g", MaxAbsDiff(l, r))
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randDense(rng, 5, 4)
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xm := NewDense(4, 1)
	copy(xm.Data, x)
	want := Mul(m, xm)
	got := m.MulVec(x)
	for i := range got {
		if !almostEq(got[i], want.At(i, 0), 1e-13) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randDense(rng, 5, 4)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := m.MulVecT(x)
	want := m.T().MulVec(x)
	for i := range got {
		if !almostEq(got[i], want[i], 1e-13) {
			t.Fatalf("MulVecT[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScaleAddMat(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	m.Scale(2)
	if m.At(1, 1) != 8 {
		t.Fatalf("Scale: %v", m.Data)
	}
	m.AddMat(0.5, NewDenseFrom([][]float64{{2, 2}, {2, 2}}))
	if m.At(0, 0) != 3 {
		t.Fatalf("AddMat: %v", m.Data)
	}
}

func TestNorms(t *testing.T) {
	m := NewDenseFrom([][]float64{{3, 0}, {0, -4}})
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestIsSymmetric(t *testing.T) {
	s := NewDenseFrom([][]float64{{1, 2}, {2, 1}})
	if !s.IsSymmetric(0) {
		t.Fatal("want symmetric")
	}
	a := NewDenseFrom([][]float64{{1, 2}, {3, 1}})
	if a.IsSymmetric(0.5) {
		t.Fatal("want asymmetric")
	}
	if !NewDense(2, 3).IsSymmetric(0) == false {
		t.Fatal("non-square is never symmetric")
	}
}

// MirrorUpper must copy exactly the strict upper triangle onto the
// lower one, leaving the diagonal and the upper triangle alone, at sizes
// around its block edge.
func TestMirrorUpper(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 130} {
		m := NewDense(n, n)
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		orig := m.Clone()
		m.MirrorUpper()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := orig.At(a, b)
				if a > b {
					want = orig.At(b, a)
				}
				if m.At(a, b) != want {
					t.Fatalf("n=%d: (%d,%d) = %v, want %v", n, a, b, m.At(a, b), want)
				}
			}
		}
	}
}

func TestNNZ(t *testing.T) {
	m := NewDenseFrom([][]float64{{0, 1e-14}, {0.5, 0}})
	if got := m.NNZ(1e-12); got != 1 {
		t.Fatalf("NNZ = %d, want 1", got)
	}
}

func TestZeroAndCopyFrom(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	src := NewDenseFrom([][]float64{{5, 6}, {7, 8}})
	m.CopyFrom(src)
	if m.At(0, 1) != 6 {
		t.Fatal("CopyFrom failed")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero failed")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random matrices.
func TestQuickMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a, b := randDense(rng, r, k), randDense(rng, k, c)
		return MaxAbsDiff(Mul(a, b).T(), Mul(b.T(), a.T())) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The wrong-row hazard the At contract documents: on a 3×3 matrix,
// At(0, 4) stays inside the 9-element backing slice and silently reads
// row 1. The release build preserves that raw behavior (callers
// validate); under -tags boundschecks every such access must panic
// instead — this test pins down both modes.
func TestAtOutOfRangeColumnContract(t *testing.T) {
	m := NewDense(3, 3)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic with boundschecks on", name)
			}
		}()
		f()
	}
	if !boundsChecks {
		if got := m.At(0, 4); got != m.At(1, 1) {
			t.Fatalf("release At(0,4) = %v; documented wrong-row behavior reads row 1 (%v)", got, m.At(1, 1))
		}
		return
	}
	mustPanic("At(0,4)", func() { m.At(0, 4) })
	mustPanic("At(0,-1)", func() { m.At(0, -1) })
	mustPanic("At(3,0)", func() { m.At(3, 0) })
	mustPanic("Set(1,3)", func() { m.Set(1, 3, 0) })
	mustPanic("Add(-1,0)", func() { m.Add(-1, 0, 1) })
	mustPanic("Row(3)", func() { m.Row(3) })
	mustPanic("Row(-1)", func() { m.Row(-1) })
	mustPanic("Col(3)", func() { m.Col(3) })
	mustPanic("Col(-1)", func() { m.Col(-1) })
	// In-range access still works.
	if m.At(1, 1) != 4 {
		t.Fatalf("At(1,1) = %v, want 4", m.At(1, 1))
	}
}
