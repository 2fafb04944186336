package main

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestStreamsNeverRejected applies every workload's seeded streams, in a
// random interleaving, to the base graph: no insert may hit a present
// edge and no delete an absent one, and the streams' own view of the
// final graph must match.
func TestStreamsNeverRejected(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 3; seed++ {
			base := baseGraph(w)
			g := base.Clone()
			streams := newStreams(w, seed, base)
			order := rand.New(rand.NewSource(seed))
			writes := 0
			for range 4000 {
				o := streams[order.Intn(len(streams))].next()
				switch o.kind {
				case opInsert:
					if !g.AddEdge(o.a, o.b) {
						t.Fatalf("%s seed %d: insert %d→%d of a present edge", w.name, seed, o.a, o.b)
					}
				case opDelete:
					if !g.RemoveEdge(o.a, o.b) {
						t.Fatalf("%s seed %d: delete %d→%d of an absent edge", w.name, seed, o.a, o.b)
					}
				default:
					if o.a < 0 || o.a >= w.n || o.b < 0 || o.b >= w.n {
						t.Fatalf("%s seed %d: read %+v out of range", w.name, seed, o)
					}
					continue
				}
				writes++
			}
			if writes == 0 {
				t.Fatalf("%s seed %d: no writes in 4000 ops", w.name, seed)
			}
			got, want := finalEdges(streams), g.Edges()
			slices.SortFunc(got, func(a, b graph.Edge) int {
				return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
			})
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: streams track %d edges, graph has %d", w.name, seed, len(got), len(want))
			}
		}
	}
}

// TestInterleaveDeterministic checks that a seed fixes the op sequence.
func TestInterleaveDeterministic(t *testing.T) {
	w, _ := findWorkload("read_mostly")
	base := baseGraph(w)
	a, b := interleave(w, 7, base, 500), interleave(w, 7, base, 500)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different op sequences")
	}
	if c := interleave(w, 8, baseGraph(w), 500); slices.Equal(a, c) {
		t.Fatal("different seeds, same op sequence")
	}
}
