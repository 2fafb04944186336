// Package matrix provides the dense linear-algebra substrate used by
// every SimRank algorithm in this repository: row-major dense matrices
// and the vector kernels (dot, axpy, outer product) that the rank-one
// Sylvester iteration of Inc-uSR/Inc-SR is built from. The sparse
// transition matrix Q has no type here: the graph's sorted in-lists are
// its one form (graph.DiGraph.MulQ and MulQT).
//
// Everything is float64 and stdlib-only. Matrices are small-n oriented
// (SimRank itself is Θ(n²) output), so the dense type stores a single
// contiguous backing slice for cache-friendly row traversal.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense returns a zeroed r×c dense matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %d×%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseFrom builds a dense matrix from a slice of rows. All rows must
// have equal length.
func NewDenseFrom(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged row %d: len %d, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// checkIndex asserts 0 ≤ i < Rows and 0 ≤ j < Cols. It is called behind
// the constant boundsChecks guard, so release builds pay nothing.
func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of range %d×%d", i, j, m.Rows, m.Cols))
	}
}

// checkRow asserts 0 ≤ i < Rows, behind the same guard.
func (m *Dense) checkRow(i int) {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d×%d", i, m.Rows, m.Cols))
	}
}

// At returns element (i, j).
//
// Contract: i ∈ [0, Rows) and j ∈ [0, Cols). The flat row-major index
// i*Cols+j means an out-of-range j that stays inside the backing slice
// silently reads an element of a DIFFERENT row — a wrong answer, not a
// crash — so callers must validate untrusted indices (the engine's query
// facade does). Build with -tags boundschecks to turn any violation into
// a panic.
func (m *Dense) At(i, j int) float64 {
	if boundsChecks {
		m.checkIndex(i, j)
	}
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j); same index contract as At.
func (m *Dense) Set(i, j int, v float64) {
	if boundsChecks {
		m.checkIndex(i, j)
	}
	m.Data[i*m.Cols+j] = v
}

// Add accumulates v into element (i, j); same index contract as At.
func (m *Dense) Add(i, j int, v float64) {
	if boundsChecks {
		m.checkIndex(i, j)
	}
	m.Data[i*m.Cols+j] += v
}

// N returns the row count — the node count when m is a square similarity
// matrix. It exists so *Dense satisfies the similarity-store interfaces
// of internal/core and internal/simstore.
func (m *Dense) N() int { return m.Rows }

// AddSym applies the symmetric rank-two update v·(e_i·e_jᵀ + e_j·e_iᵀ):
// element (i, j) and element (j, i) each accumulate v, as two sequential
// adds — on the diagonal (i == j) the cell is therefore bumped twice,
// ((x+v)+v), matching the entrywise S += M + Mᵀ write-back of the
// incremental update algorithms. Symmetric stores can realize the same
// result with one backing cell.
func (m *Dense) AddSym(i, j int, v float64) {
	if boundsChecks {
		m.checkIndex(i, j)
		m.checkIndex(j, i)
	}
	m.Data[i*m.Cols+j] += v
	m.Data[j*m.Cols+i] += v
}

// MirrorUpper copies every entry (a, b) with a < b onto (b, a), so a
// square m becomes exactly symmetric, holding its upper triangle's
// values. It walks 64×64 blocks: a plain loop's column writes lie Cols
// floats apart, and at a power-of-two Cols every one of them maps to the
// same few cache sets.
//
//simrank:noalloc
func (m *Dense) MirrorUpper() {
	n := m.Rows
	if m.Cols != n {
		panic("matrix: MirrorUpper needs a square matrix")
	}
	const blk = 64
	for a0 := 0; a0 < n; a0 += blk {
		a1 := min(a0+blk, n)
		for b0 := a0; b0 < n; b0 += blk {
			b1 := min(b0+blk, n)
			for a := a0; a < a1; a++ {
				row := m.Data[a*n : (a+1)*n]
				for b := max(b0, a+1); b < b1; b++ {
					m.Data[b*n+a] = row[b]
				}
			}
		}
	}
}

// Row returns the i-th row as a slice aliasing the matrix storage.
// i must be in [0, Rows): on a non-square matrix an out-of-range i can
// otherwise slice a window of the wrong rows instead of panicking.
func (m *Dense) Row(i int) []float64 {
	if boundsChecks {
		m.checkRow(i)
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Col returns a copy of the j-th column. j must be in [0, Cols): like
// At, an out-of-range j otherwise reads elements of the wrong rows.
func (m *Dense) Col(j int) []float64 {
	if boundsChecks {
		if j < 0 || j >= m.Cols {
			panic(fmt.Sprintf("matrix: column %d out of range %d×%d", j, m.Rows, m.Cols))
		}
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom overwrites m with src. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("matrix: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero resets every element to 0 in place.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Scale multiplies every element by a in place and returns m.
func (m *Dense) Scale(a float64) *Dense {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// AddMat accumulates a*b into m in place (m += a·b) and returns m.
func (m *Dense) AddMat(a float64, b *Dense) *Dense {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("matrix: AddMat dimension mismatch")
	}
	for i, v := range b.Data {
		m.Data[i] += a * v
	}
	return m
}

// Mul returns a·b as a new matrix.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns m·x as a new vector.
func (m *Dense) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic("matrix: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// MulVecT returns mᵀ·x as a new vector without materializing the transpose.
func (m *Dense) MulVecT(x []float64) []float64 {
	if m.Rows != len(x) {
		panic("matrix: MulVecT dimension mismatch")
	}
	out := make([]float64, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// MaxAbsDiff returns ‖a−b‖_max, the largest absolute entrywise difference.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("matrix: MaxAbsDiff dimension mismatch")
	}
	var max float64
	for i, v := range a.Data {
		d := math.Abs(v - b.Data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// MaxAbs returns ‖m‖_max, the largest absolute entry.
func (m *Dense) MaxAbs() float64 {
	var max float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// NNZ counts entries with |v| > tol.
func (m *Dense) NNZ(tol float64) int {
	n := 0
	for _, v := range m.Data {
		if math.Abs(v) > tol {
			n++
		}
	}
	return n
}

// String renders the matrix for debugging (fixed 3-decimal layout).
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%7.3f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
