package simstore

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// exact is the write path the dense and packed stores share: the
// persistent core.Workspace Inc-SR runs in — the maintained Qᵀ plus
// every update scratch buffer, so a warm update allocates nothing.
// Updates run on the calling goroutine. The workspace is built over the
// graph on the first write and from then on applies every update to it.
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

// update runs Inc-SR for one unit update on s, then applies the edge
// through the workspace to Qᵀ and g. IncSR never mutates s before its
// last error check, so a rejected update leaves all three untouched.
//
//simrank:noalloc
func (x *exact) update(s core.SimStore, g *graph.DiGraph, up graph.Update, p Params) (core.Stats, error) {
	ws := x.workspace(g)
	st, err := ws.IncSR(s, up, p.C, p.K)
	if err != nil {
		return core.Stats{}, err
	}
	ws.ApplyUpdate(up)
	return st, nil
}

// follow applies ups through the workspace when it is built, and to g
// otherwise, and returns the workspace of the result — the first half of
// a Recompute.
func (x *exact) follow(g *graph.DiGraph, ups []graph.Update) *core.Workspace {
	for _, up := range ups {
		if x.ws != nil {
			x.ws.ApplyUpdate(up)
		} else {
			g.Apply(up)
		}
	}
	return x.workspace(g)
}
