package core

import (
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// changedRows returns the rows where before and after differ in any bit —
// the ground truth DirtyRows must cover.
func changedRows(before, after *matrix.Dense) map[int]bool {
	rows := make(map[int]bool)
	for a := 0; a < before.Rows; a++ {
		br, ar := before.Row(a), after.Row(a)
		for b := range br {
			if br[b] != ar[b] {
				rows[a] = true
				break
			}
		}
	}
	return rows
}

// Every row whose similarity bits an update changes must appear in
// Stats.DirtyRows (it may overmark: an accumulation can round to a
// no-op), for both algorithms, across random graphs and streams. This is
// the soundness contract the engine's query-cache invalidation rests on.
func TestDirtyRowsCoverEveryChangedRow(t *testing.T) {
	for _, pruned := range []bool{true, false} {
		name := "Inc-uSR"
		if pruned {
			name = "Inc-SR"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(67))
			for trial := 0; trial < 4; trial++ {
				n := 6 + rng.Intn(20)
				g := randGraph(rng, n, 3*n)
				c, k := 0.6, 10
				s := batch.MatrixForm(g, c, k)
				ws := NewWorkspace(g)
				for step := 0; step < 10; step++ {
					up := randUpdate(rng, g)
					before := s.Clone()
					var (
						st  Stats
						err error
					)
					if pruned {
						st, err = ws.IncSR(s, up, c, k)
					} else {
						st, err = ws.IncUSR(s, up, c, k)
					}
					if err != nil {
						t.Fatal(err)
					}
					ws.ApplyUpdate(up)

					dirty := make(map[int]bool, len(st.DirtyRows))
					for _, r := range st.DirtyRows {
						if r < 0 || r >= n {
							t.Fatalf("step %d %v: dirty row %d out of range", step, up, r)
						}
						if dirty[r] {
							t.Fatalf("step %d %v: dirty row %d reported twice", step, up, r)
						}
						dirty[r] = true
					}
					for r := range changedRows(before, s) {
						if !dirty[r] {
							t.Fatalf("step %d %v: row %d changed but is not in DirtyRows %v",
								step, up, r, st.DirtyRows)
						}
					}
				}
			}
		})
	}
}

// A failed update must not clobber the previous update's DirtyRows: the
// slice stays valid until the next *successful* mutation, which is what
// lets the engine consume it after the error check.
func TestDirtyRowsSurviveRejectedUpdate(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	s := batch.MatrixForm(g, 0.6, 10)
	ws := NewWorkspace(g)

	up := graph.Update{Edge: graph.Edge{From: 0, To: 2}, Insert: false}
	st, err := ws.IncSR(s, up, 0.6, 10)
	if err != nil {
		t.Fatal(err)
	}
	ws.ApplyUpdate(up)
	want := append([]int(nil), st.DirtyRows...)
	if len(want) == 0 {
		t.Fatal("deleting a live edge dirtied no rows")
	}

	// Deleting it again must fail before any state is touched.
	if _, err := ws.IncSR(s, up, 0.6, 10); err == nil {
		t.Fatal("double delete did not fail")
	}
	for i, r := range st.DirtyRows {
		if want[i] != r {
			t.Fatalf("rejected update clobbered DirtyRows: %v, want %v", st.DirtyRows, want)
		}
	}
}
