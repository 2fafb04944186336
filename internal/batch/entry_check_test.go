//go:build boundschecks

package batch

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// Under -tags boundschecks the kernel checks its entry contract and
// names the offending cell: s must arrive +0 (−0 included), every
// worker's accumulator must hold +0 with no column marked, and
// MatrixFormUpper's row segments must arrive +0.
func TestMatrixFormScratchRejectsDirtyEntry(t *testing.T) {
	const n = 70
	g := gen.PrefAttach(n, 3, 1)
	for _, tc := range []struct {
		name, want string
		dirty      func(s *matrix.Dense, sc *Scratch)
	}{
		{"dirty s", "cell (3, 66) of s", func(s *matrix.Dense, _ *Scratch) { s.Set(3, 66, 0.5) }},
		{"-0 in s", "cell (5, 5) of s", func(s *matrix.Dense, _ *Scratch) { s.Set(5, 5, math.Copysign(0, -1)) }},
		{"dirty accumulator", "cell 9 of worker 0's accumulator", func(_ *matrix.Dense, sc *Scratch) { sc.acc[0].vals[9] = 1 }},
		{"marked accumulator", "worker 0's accumulator has column 67 marked", func(_ *matrix.Dense, sc *Scratch) { sc.acc[0].marks[1] = 1 << 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, sc := matrix.NewDense(n, n), NewScratch(n)
			tc.dirty(s, sc)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			MatrixFormScratch(s, sc, g, 0.6, 4, 1)
		})
	}
	t.Run("dirty triangle", func(t *testing.T) {
		tri := make([]float64, n)
		tri[2] = 0.5
		defer func() {
			msg, _ := recover().(string)
			if want := "cell (4, 6) of the upper triangle"; !strings.Contains(msg, want) {
				t.Fatalf("panic %q, want one naming %q", msg, want)
			}
		}()
		MatrixFormUpper(NewScratch(n), g, 0.6, 4, 1, func(a int) []float64 {
			if a == 4 {
				return tri
			}
			return make([]float64, n-a)
		})
	})
}
