package matrix

import "math"

// Dot returns the inner product xᵀ·y. Panics on length mismatch.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("matrix: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy performs y += a·x in place (the SAXPY kernel of Section V-A).
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("matrix: Axpy length mismatch")
	}
	if a == 0 {
		return
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies x by a in place.
func ScaleVec(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Outer returns the rank-one matrix x·yᵀ.
func Outer(x, y []float64) *Dense {
	m := NewDense(len(x), len(y))
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, yj := range y {
			row[j] = xi * yj
		}
	}
	return m
}

// AddOuter accumulates a·x·yᵀ into m in place.
//
//simrank:noalloc
func AddOuter(m *Dense, a float64, x, y []float64) {
	if m.Rows != len(x) || m.Cols != len(y) {
		panic("matrix: AddOuter dimension mismatch")
	}
	if a == 0 {
		return
	}
	for i := range x {
		c := a * x[i]
		if c == 0 {
			continue
		}
		row := m.Row(i)
		for j, yj := range y {
			row[j] += c * yj
		}
	}
}

// UnitVec returns e_i ∈ R^n, the unit vector with a 1 in entry i.
func UnitVec(n, i int) []float64 {
	v := make([]float64, n)
	v[i] = 1
	return v
}

// Norm2 returns the Euclidean norm ‖x‖₂.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// NormInf returns ‖x‖_∞.
func NormInf(x []float64) float64 {
	var max float64
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}

// SubVec returns x−y as a new vector.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("matrix: SubVec length mismatch")
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}
