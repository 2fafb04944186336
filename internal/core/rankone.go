package core

import (
	"fmt"

	"repro/internal/graph"
)

// RankOne is the rank-one decomposition ΔQ = u·vᵀ of the transition-matrix
// change caused by one unit link update (Theorem 1), as dense n-vectors:
// u has a single non-zero entry at j, v at most d_j+1.
type RankOne struct {
	U, V []float64
}

// ErrBadUpdate reports an update that does not apply to the given graph
// (inserting an existing edge, or deleting an absent one).
type ErrBadUpdate struct {
	Update graph.Update
	Reason string
}

func (e *ErrBadUpdate) Error() string {
	return fmt.Sprintf("core: update %v: %s", e.Update, e.Reason)
}

// CheckUpdate returns the *ErrBadUpdate that rejects up on g — an
// endpoint out of range, an insert of a present edge or a delete of an
// absent one — or nil when up applies. An edge in pending is present or
// absent as pending says, overriding g: the earlier updates of a batch
// validated in order (nil when there are none).
//
//simrank:noalloc
func CheckUpdate(g *graph.DiGraph, up graph.Update, pending map[graph.Edge]bool) error {
	i, j := up.Edge.From, up.Edge.To
	if i < 0 || i >= g.N() || j < 0 || j >= g.N() {
		return &ErrBadUpdate{up, "node out of range"}
	}
	present, ok := pending[up.Edge]
	if !ok {
		present = g.HasEdge(i, j)
	}
	switch {
	case up.Insert && present:
		return &ErrBadUpdate{up, "edge already present"}
	case !up.Insert && !present:
		return &ErrBadUpdate{up, "edge absent"}
	}
	return nil
}

// Decompose computes u, v with ΔQ = u·vᵀ for the unit update up applied to
// the old graph g (Theorem 1, Eqs. 17–18), as fresh dense n-vectors. The
// updates run its allocation-free form, Workspace.decompose, which is
// tested against it; the Inc-SVD baseline and the ablations call it.
//
// Insertion of (i, j):
//
//	d_j = 0: u = e_j,          v = e_i
//	d_j > 0: u = e_j/(d_j+1),  v = e_i − [Q]ᵀ_{j,·}
//
// Deletion of (i, j):
//
//	d_j = 1: u = e_j,          v = −e_i
//	d_j > 1: u = e_j/(d_j−1),  v = [Q]ᵀ_{j,·} − e_i
func Decompose(g *graph.DiGraph, up graph.Update) (RankOne, error) {
	if err := CheckUpdate(g, up, nil); err != nil {
		return RankOne{}, err
	}
	i, j := up.Edge.From, up.Edge.To
	n := g.N()
	dj := g.InDegree(j)
	u := make([]float64, n)
	v := make([]float64, n)
	if up.Insert {
		if dj == 0 {
			u[j] = 1
			v[i] = 1
		} else {
			u[j] = 1 / float64(dj+1)
			v[i] = 1
			w := 1 / float64(dj)
			for _, t := range g.In(j) {
				v[t] -= w // subtract [Q]_{j,t} = 1/d_j
			}
		}
		return RankOne{U: u, V: v}, nil
	}
	if dj == 1 {
		u[j] = 1
		v[i] = -1
	} else {
		u[j] = 1 / float64(dj-1)
		v[i] = -1
		w := 1 / float64(dj)
		for _, t := range g.In(j) {
			v[t] += w // add [Q]_{j,t}
		}
	}
	return RankOne{U: u, V: v}, nil
}
