package exp

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// Exp2Pruning regenerates Fig. 2d: per dataset, the elapsed time of
// Inc-uSR vs Inc-SR for one snapshot delta, together with the percentage
// of node-pairs the pruning skipped (the black bars).
func Exp2Pruning(datasets []*gen.Dataset, deltaSize int) (*Table, error) {
	t := &Table{
		ID:      "EXP2d",
		Caption: fmt.Sprintf("Fig.2d — pruning effect: elapsed time (ms) and %% pruned pairs (|dE|=%d)", deltaSize),
		Header:  []string{"dataset", "Inc-uSR", "Inc-SR", "speedup", "pruned pairs"},
	}
	for _, d := range datasets {
		c, k := DampingC, d.K
		sOld := batch.MatrixForm(d.Base, c, k)
		delta := d.Delta(deltaSize)

		var uErr, sErr error
		tUSR := timeIt(func() {
			_, _, uErr = foldDelta((*core.Workspace).IncUSR, d.Base, sOld, delta, c, k)
		})
		var stats []core.Stats
		tSR := timeIt(func() {
			_, stats, sErr = foldDelta((*core.Workspace).IncSR, d.Base, sOld, delta, c, k)
		})
		if uErr != nil || sErr != nil {
			return nil, fmt.Errorf("exp: Exp2Pruning on %s: %v / %v", d.Name, uErr, sErr)
		}
		var affected float64
		for _, st := range stats {
			affected += float64(st.AffectedPairs)
		}
		affected /= float64(len(stats))
		pruned := metrics.PrunedRatio(int(affected), d.Base.N())
		speedup := float64(tUSR) / float64(tSR)
		t.AddRow(d.Name, ms(tUSR), ms(tSR), fmt.Sprintf("%.1fx", speedup), pct(pruned))
	}
	return t, nil
}

// Exp2Affected regenerates Fig. 2e: the percentage of "affected areas" in
// the similarity update as |ΔE| grows, per dataset. The affected area of
// one delta is the union of node-pairs any unit update touched, relative
// to n².
func Exp2Affected(datasets []*gen.Dataset, deltas []int) (*Table, error) {
	t := &Table{
		ID:      "EXP2e",
		Caption: "Fig.2e — % of affected node-pairs in dS per |dE|",
		Header:  append([]string{"dataset"}, deltaHeaders(deltas)...),
	}
	for _, d := range datasets {
		c, k := DampingC, d.K
		sOld := batch.MatrixForm(d.Base, c, k)
		row := []string{d.Name}
		for _, dl := range deltas {
			delta := d.Delta(dl)
			_, stats, err := foldDelta((*core.Workspace).IncSR, d.Base, sOld, delta, c, k)
			if err != nil {
				return nil, fmt.Errorf("exp: Exp2Affected on %s: %w", d.Name, err)
			}
			// Average affected pairs per unit update (the per-update
			// |AFF| of the complexity bound).
			var avg float64
			for _, st := range stats {
				avg += float64(st.AffectedPairs)
			}
			avg /= float64(len(stats))
			row = append(row, pct(metrics.AffectedRatio(int(avg), d.Base.N())))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
