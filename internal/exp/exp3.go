package exp

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incsvd"
	"repro/internal/lin"
)

// svdMemBudgetFloats caps the intermediate memory Inc-SVD may allocate
// before the experiment declares the paper's "memory crash" (Fig. 3 shows
// Inc-SVD exploding to GBs where Inc-SR needs MBs; we mirror the blow-up
// with an explicit budget so the harness stays laptop-sized).
const svdMemBudgetFloats = 64 << 20 // 64M float64 = 512 MiB

// Exp3Memory regenerates Fig. 3: intermediate memory (MB) of Inc-SR,
// Inc-uSR and Inc-SVD at target ranks 5, 15, 25. "crash" marks datasets
// or ranks whose estimated footprint exceeds the budget, mirroring the
// paper's SVD memory crashes on larger graphs.
func Exp3Memory(datasets []*gen.Dataset, deltaSize int) (*Table, error) {
	t := &Table{
		ID:      "EXP3",
		Caption: fmt.Sprintf("Fig.3 — intermediate memory (MB), |dE|=%d", deltaSize),
		Header:  []string{"dataset", "Inc-SR", "Inc-uSR", "Inc-SVD(5)", "Inc-SVD(15)", "Inc-SVD(25)"},
	}
	for _, d := range datasets {
		c, k := DampingC, d.K
		sOld := batch.MatrixForm(d.Base, c, k)
		delta := d.Delta(deltaSize)

		_, statsSR, err := foldDelta((*core.Workspace).IncSR, d.Base, sOld, delta, c, k)
		if err != nil {
			return nil, fmt.Errorf("exp: Exp3Memory Inc-SR on %s: %w", d.Name, err)
		}
		var peakSR int
		for _, st := range statsSR {
			if st.AuxFloats > peakSR {
				peakSR = st.AuxFloats
			}
		}
		_, statsUSR, err := foldDelta((*core.Workspace).IncUSR, d.Base, sOld, delta, c, k)
		if err != nil {
			return nil, fmt.Errorf("exp: Exp3Memory Inc-uSR on %s: %w", d.Name, err)
		}
		var peakUSR int
		for _, st := range statsUSR {
			if st.AuxFloats > peakUSR {
				peakUSR = st.AuxFloats
			}
		}

		row := []string{d.Name, mb(peakSR), mb(peakUSR)}
		// One lossless factorization per dataset; each rank derives from it.
		var full *lin.SVD
		if d.SVDFeasible {
			full = lin.ComputeSVD(d.Base.BackwardTransition(), 1e-10)
		}
		for _, r := range []int{5, 15, 25} {
			// Estimated footprint before running: 2nr factors + r² SVD
			// workspace + the dense n×n SVD input.
			est := 2*d.Base.N()*r + 3*r*r + d.Base.N()*d.Base.N()
			if !d.SVDFeasible || est > svdMemBudgetFloats {
				row = append(row, "crash")
				continue
			}
			eng, err := incsvd.NewFromSVD(d.Base.N(), c, r, full)
			if err != nil {
				return nil, fmt.Errorf("exp: Exp3Memory Inc-SVD(%d) on %s: %w", r, d.Name, err)
			}
			g := d.Base.Clone()
			for _, up := range delta {
				if err := eng.Update(g, up); err != nil {
					return nil, err
				}
				g.Apply(up)
			}
			// Include the dense Q working copy the factorization needed.
			row = append(row, mb(eng.AuxFloats()+d.Base.N()*d.Base.N()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
