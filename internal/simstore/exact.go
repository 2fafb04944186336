package simstore

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// exact is the write path the dense and packed stores share: the
// persistent core.Workspace Inc-SR and Inc-uSR run in — the maintained
// transition matrices plus every update scratch buffer, so a warm update
// allocates nothing — and the worker count the batch kernel fans out
// across. Updates run on the calling goroutine. The workspace is built
// from the graph on the first write; sealed views hold the zero value.
type exact struct {
	ws      *core.Workspace
	workers int
}

// workspace returns the persistent workspace, building it from g on
// first use.
func (x *exact) workspace(g *graph.DiGraph) *core.Workspace {
	if x.ws == nil {
		x.ws = core.NewWorkspace(g)
	}
	return x.ws
}

// update runs one unit update on s and folds the edge into the
// workspace. The workspace variants never mutate s before their last
// error check, so a rejected update leaves both untouched.
//
//simrank:noalloc
func (x *exact) update(s core.SimStore, g *graph.DiGraph, up graph.Update, p Params) (core.Stats, error) {
	ws := x.workspace(g)
	var (
		st  core.Stats
		err error
	)
	if p.NoPruning {
		st, err = ws.IncUSR(s, up, p.C, p.K)
	} else {
		st, err = ws.IncSR(s, up, p.C, p.K)
	}
	if err != nil {
		return core.Stats{}, err
	}
	ws.ApplyUpdate(up)
	return st, nil
}

// follow applies ups to g and to the workspace, if built, and returns
// the workspace of the result — the first half of a Recompute.
func (x *exact) follow(g *graph.DiGraph, ups []graph.Update) *core.Workspace {
	for _, up := range ups {
		g.Apply(up)
		if x.ws != nil {
			x.ws.ApplyUpdate(up)
		}
	}
	return x.workspace(g)
}

// SetWorkers sets the worker count of the batch kernel.
func (x *exact) SetWorkers(workers int) { x.workers = workers }
