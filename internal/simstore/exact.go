package simstore

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// exact is the write path the dense and packed stores share: the
// persistent core.Workspace Inc-SR runs in, holding every update scratch
// buffer, so a warm update allocates nothing. Updates run on the calling
// goroutine. The workspace is built over the graph on the first write
// and reads Q and Qᵀ from the graph's sorted adjacency, so applying an
// update to the graph is all it takes to keep them current.
type exact struct {
	ws *core.Workspace
}

// workspace returns the persistent workspace, building it from g on
// first use.
func (x *exact) workspace(g *graph.DiGraph) *core.Workspace {
	if x.ws == nil {
		x.ws = core.NewWorkspace(g)
	}
	return x.ws
}

// update runs Inc-SR for one unit update on s, then applies the edge to
// g. IncSR never mutates s before its last error check, so a rejected
// update leaves both untouched.
//
//simrank:noalloc
func (x *exact) update(s core.SimStore, g *graph.DiGraph, up graph.Update, p Params) (core.Stats, error) {
	st, err := x.workspace(g).IncSR(s, up, p.C, p.K)
	if err != nil {
		return core.Stats{}, err
	}
	g.Apply(up)
	return st, nil
}

// follow applies ups to g — the first half of a Recompute.
func follow(g *graph.DiGraph, ups []graph.Update) {
	for _, up := range ups {
		g.Apply(up)
	}
}
