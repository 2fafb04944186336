package exp

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incsvd"
	"repro/internal/lin"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// exactBaselineK is the iteration count of the exact baseline (the paper
// uses K = 35, enough to cover every dataset diameter; footnote 26).
const exactBaselineK = 35

// NDCGTopK is the cut-off of the exactness metric (NDCG₃₀, Exp-4).
const NDCGTopK = 30

// Exp4Exactness regenerates Fig. 4: NDCG₃₀ of Inc-SR and Inc-uSR at
// K ∈ {5, 15} and of Inc-SVD at ranks {5, 15}, all against the batch
// K=35 baseline on the updated graph.
func Exp4Exactness(datasets []*gen.Dataset, deltaSize int) (*Table, error) {
	t := &Table{
		ID:      "EXP4",
		Caption: fmt.Sprintf("Fig.4 — NDCG%d vs batch K=%d baseline, |dE|=%d", NDCGTopK, exactBaselineK, deltaSize),
		Header: []string{"dataset", "Inc-SR(5)", "Inc-SR(15)", "Inc-uSR(5)", "Inc-uSR(15)",
			"Inc-SVD(5)", "Inc-SVD(15)"},
	}
	for _, d := range datasets {
		delta := d.Delta(deltaSize)
		gNew := applyAll(d.Base, delta)
		ideal := batch.MatrixForm(gNew, DampingC, exactBaselineK)
		row := []string{d.Name}

		for _, k := range []int{5, 15} {
			sOld := batch.MatrixForm(d.Base, DampingC, k)
			got, _, err := foldDelta((*core.Workspace).IncSR, d.Base, sOld, delta, DampingC, k)
			if err != nil {
				return nil, fmt.Errorf("exp: Exp4 Inc-SR on %s: %w", d.Name, err)
			}
			row = append(row, f3(metrics.NDCG(got, ideal, NDCGTopK)))
		}
		for _, k := range []int{5, 15} {
			sOld := batch.MatrixForm(d.Base, DampingC, k)
			got, _, err := foldDelta((*core.Workspace).IncUSR, d.Base, sOld, delta, DampingC, k)
			if err != nil {
				return nil, fmt.Errorf("exp: Exp4 Inc-uSR on %s: %w", d.Name, err)
			}
			row = append(row, f3(metrics.NDCG(got, ideal, NDCGTopK)))
		}
		var full *lin.SVD
		if d.SVDFeasible {
			full = lin.ComputeSVD(d.Base.BackwardTransition(), 1e-10)
		}
		for _, r := range []int{5, 15} {
			if !d.SVDFeasible {
				row = append(row, "crash")
				continue
			}
			got, err := incSVDScores(d, delta, r, full)
			if err != nil {
				return nil, fmt.Errorf("exp: Exp4 Inc-SVD(%d) on %s: %w", r, d.Name, err)
			}
			row = append(row, f3(metrics.NDCG(got, ideal, NDCGTopK)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// incSVDScores folds a delta through the Inc-SVD engine and reconstructs
// the final similarities.
func incSVDScores(d *gen.Dataset, delta []graph.Update, r int, full *lin.SVD) (*matrix.Dense, error) {
	eng, err := incsvd.NewFromSVD(d.Base.N(), DampingC, r, full)
	if err != nil {
		return nil, err
	}
	g := d.Base.Clone()
	for _, up := range delta {
		if err := eng.Update(g, up); err != nil {
			return nil, err
		}
		g.Apply(up)
	}
	return eng.Similarities(), nil
}
