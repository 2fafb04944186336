//go:build boundschecks

package batch

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// Under -tags boundschecks MatrixFormScratch checks its entry contract
// and names the offending cell: s must arrive +0 (−0 included), and T
// must hold +0 wherever it is unflagged.
func TestMatrixFormScratchRejectsDirtyEntry(t *testing.T) {
	const n = 70
	g := gen.PrefAttach(n, 3, 1)
	for _, tc := range []struct {
		name, want string
		dirty      func(s *matrix.Dense, sc *Scratch)
	}{
		{"dirty s", "cell (3, 66) of s", func(s *matrix.Dense, _ *Scratch) { s.Set(3, 66, 0.5) }},
		{"-0 in s", "cell (5, 5) of s", func(s *matrix.Dense, _ *Scratch) { s.Set(5, 5, math.Copysign(0, -1)) }},
		{"unflagged T", "unflagged cell (2, 9) of T", func(_ *matrix.Dense, sc *Scratch) { sc.t.Set(2, 9, 1) }},
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
}
