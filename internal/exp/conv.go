package exp

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// Convergence regenerates the accuracy analysis behind Section VI-A's
// choice of K = 15: for a snapshot delta folded incrementally at several
// iteration counts, it reports the max-norm error against a
// high-iteration baseline, next to the theoretical bound C^{K+1}/(1−C).
// Both the measured error and the bound should decay geometrically in K,
// with the measurement below the bound.
func Convergence(d *gen.Dataset, deltaSize int, ks []int) (*Table, error) {
	c := DampingC
	const baselineK = 60
	delta := d.Delta(deltaSize)
	gNew := applyAll(d.Base, delta)
	exact := batch.MatrixForm(gNew, c, baselineK)

	t := &Table{
		ID: "CONV/" + d.Name,
		Caption: fmt.Sprintf("residual of incrementally folded scores vs K (dataset %s, |dE|=%d, C=%.1f)",
			d.Name, len(delta), c),
		Header: []string{"K", "max error", "bound C^(K+1)/(1-C)"},
	}
	for _, k := range ks {
		sOld := batch.MatrixForm(d.Base, c, k)
		got, _, err := foldDelta((*core.Workspace).IncSR, d.Base, sOld, delta, c, k)
		if err != nil {
			return nil, fmt.Errorf("exp: Convergence on %s: %w", d.Name, err)
		}
		bound := 1.0
		for i := 0; i <= k; i++ {
			bound *= c
		}
		bound /= 1 - c
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.2e", matrix.MaxAbsDiff(got, exact)),
			fmt.Sprintf("%.2e", bound))
	}
	return t, nil
}
