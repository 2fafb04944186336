package matrix

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix. It is the storage format for the
// backward transition matrix Q: row i holds 1/|I(i)| at the in-neighbors of
// node i, so a mat-vec costs O(m) and row access (needed by Theorem 1's
// [Q]_{j,·}) is O(d_j).
type CSR struct {
	RowsN, ColsN int
	RowPtr       []int     // len RowsN+1
	ColIdx       []int     // len nnz, column indices sorted within each row
	Val          []float64 // len nnz
}

// NewCSR builds a CSR matrix from coordinate triples. Duplicate (i,j)
// entries are summed. Entries that sum to exactly zero are kept (callers
// that want structural pruning should drop them beforehand).
func NewCSR(rows, cols int, is, js []int, vs []float64) *CSR {
	if len(is) != len(js) || len(is) != len(vs) {
		panic("matrix: NewCSR triple length mismatch")
	}
	type ent struct {
		i, j int
		v    float64
	}
	ents := make([]ent, len(is))
	for k := range is {
		if is[k] < 0 || is[k] >= rows || js[k] < 0 || js[k] >= cols {
			panic(fmt.Sprintf("matrix: NewCSR entry (%d,%d) out of %d×%d", is[k], js[k], rows, cols))
		}
		ents[k] = ent{is[k], js[k], vs[k]}
	}
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].i != ents[b].i {
			return ents[a].i < ents[b].i
		}
		return ents[a].j < ents[b].j
	})
	m := &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
	for k := 0; k < len(ents); {
		e := ents[k]
		v := e.v
		k++
		for k < len(ents) && ents[k].i == e.i && ents[k].j == e.j {
			v += ents[k].v
			k++
		}
		m.ColIdx = append(m.ColIdx, e.j)
		m.Val = append(m.Val, v)
		m.RowPtr[e.i+1] = len(m.ColIdx)
	}
	for i := 1; i <= rows; i++ {
		if m.RowPtr[i] < m.RowPtr[i-1] {
			m.RowPtr[i] = m.RowPtr[i-1]
		}
	}
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Row returns the column indices and values of row i, aliasing storage.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns element (i, j) by binary search within row i.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// MulVec returns m·x.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.ColsN {
		panic("matrix: CSR MulVec dimension mismatch")
	}
	out := make([]float64, m.RowsN)
	for i := range out {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		out[i] = s
	}
	return out
}

// MulVecT returns mᵀ·x without materializing the transpose.
func (m *CSR) MulVecT(x []float64) []float64 {
	if len(x) != m.RowsN {
		panic("matrix: CSR MulVecT dimension mismatch")
	}
	out := make([]float64, m.ColsN)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out[m.ColIdx[k]] += m.Val[k] * xi
		}
	}
	return out
}

// RowDot returns [m]_{i,·}·x, the inner product of row i with x.
func (m *CSR) RowDot(i int, x []float64) float64 {
	var s float64
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		s += m.Val[k] * x[m.ColIdx[k]]
	}
	return s
}

// Dense expands m to a dense matrix.
func (m *CSR) Dense() *Dense {
	d := NewDense(m.RowsN, m.ColsN)
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}

// T returns the transpose of m as a new CSR matrix.
func (m *CSR) T() *CSR {
	is := make([]int, 0, m.NNZ())
	js := make([]int, 0, m.NNZ())
	vs := make([]float64, 0, m.NNZ())
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			is = append(is, m.ColIdx[k])
			js = append(js, i)
			vs = append(vs, m.Val[k])
		}
	}
	return NewCSR(m.ColsN, m.RowsN, is, js, vs)
}

// DenseToCSR converts a dense matrix to CSR, dropping entries with |v| <= tol.
func DenseToCSR(d *Dense, tol float64) *CSR {
	var is, js []int
	var vs []float64
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			if v > tol || v < -tol {
				is = append(is, i)
				js = append(js, j)
				vs = append(vs, v)
			}
		}
	}
	return NewCSR(d.Rows, d.Cols, is, js, vs)
}
