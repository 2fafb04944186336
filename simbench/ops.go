package main

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
)

type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opTopKFor
	opSimilarity
)

// op is one request: an edge a→b to insert or delete, a /topkfor on
// node a, or a /similarity on the pair (a, b).
type op struct {
	kind opKind
	a, b int
}

func (o op) write() bool { return o.kind == opInsert || o.kind == opDelete }

func (o op) update() graph.Update {
	return graph.Update{Edge: graph.Edge{From: o.a, To: o.b}, Insert: o.kind == opInsert}
}

// request is op o as simrankd receives it: method, path with query, and
// body (nil for reads).
func (o op) request() (method, target string, body []byte) {
	switch o.kind {
	case opTopKFor:
		return "GET", fmt.Sprintf("/topkfor?node=%d&k=%d", o.a, topK), nil
	case opSimilarity:
		return "GET", fmt.Sprintf("/similarity?a=%d&b=%d", o.a, o.b), nil
	}
	verb := "insert"
	if o.kind == opDelete {
		verb = "delete"
	}
	return "POST", "/updates?wait=1", fmt.Appendf(nil, `{"from":%d,"to":%d,"op":%q}`, o.a, o.b, verb)
}

// livePool is how many inserted edges a connection holds before its
// writes alternate between deleting one of them and inserting a new one,
// so the edge count hovers near the base graph's.
const livePool = 16

// stream is one connection's deterministic op sequence. The connection
// owns the edges whose source is ≡ conn (mod numConns): it inserts only
// edges absent from the base graph and from its own inserts, and deletes
// only edges it inserted, so no write of any connection can be rejected
// in any interleaving.
type stream struct {
	w          workload
	conn       int
	rng        *rand.Rand
	zipf       *rand.Zipf
	hot        []int // topkfor targets, hottest first
	present    map[graph.Edge]bool
	live       []graph.Edge
	insertNext bool
}

// inputSeed fixes the base graph and the Zipf ranking of the /topkfor
// rows. They are the same for every --seed, which drives only the op
// streams: a different graph, or a different set of hot rows, changes
// what one write or read costs by more than a run's own noise, and runs
// must be comparable across seeds.
const inputSeed = 1

// baseGraph is the workload's input graph.
func baseGraph(w workload) *graph.DiGraph {
	return gen.PrefAttach(w.n, outDeg, inputSeed)
}

// newStreams returns the numConns connection streams of a seed over the
// base graph.
func newStreams(w workload, seed int64, base *graph.DiGraph) []*stream {
	// The Zipf head is a fixed permutation of the ids, shared by every
	// connection so they agree on which rows are hot.
	hot := rand.New(rand.NewSource(inputSeed ^ 0x5eed)).Perm(w.n)
	out := make([]*stream, numConns)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)*7919 + 1))
		s := &stream{
			w: w, conn: c, rng: rng, hot: hot,
			zipf:    rand.NewZipf(rng, 1.1, 1, uint64(w.n-1)),
			present: make(map[graph.Edge]bool),
		}
		for _, e := range base.Edges() {
			if e.From%numConns == c {
				s.present[e] = true
			}
		}
		out[c] = s
	}
	return out
}

func (s *stream) next() op {
	u := s.rng.Float64()
	switch {
	case u < s.w.writeFrac:
		return s.nextWrite()
	case u < s.w.writeFrac+s.w.topkFrac:
		return op{kind: opTopKFor, a: s.hot[s.zipf.Uint64()]}
	default:
		return op{kind: opSimilarity, a: s.rng.Intn(s.w.n), b: s.rng.Intn(s.w.n)}
	}
}

func (s *stream) nextWrite() op {
	if len(s.live) < livePool || s.insertNext {
		if e, ok := s.freshEdge(); ok {
			s.insertNext = false
			s.present[e] = true
			s.live = append(s.live, e)
			return op{kind: opInsert, a: e.From, b: e.To}
		}
	}
	s.insertNext = true
	i := s.rng.Intn(len(s.live))
	e := s.live[i]
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
	delete(s.present, e)
	return op{kind: opDelete, a: e.From, b: e.To}
}

// freshEdge draws an edge from one of the connection's sources to any
// other node that is in neither the base graph nor the live set.
func (s *stream) freshEdge() (graph.Edge, bool) {
	n := s.w.n
	sources := (n - s.conn + numConns - 1) / numConns
	for range 1000 {
		from := s.rng.Intn(sources)*numConns + s.conn
		to := s.rng.Intn(n - 1)
		if to >= from {
			to++
		}
		if e := (graph.Edge{From: from, To: to}); !s.present[e] {
			return e, true
		}
	}
	return graph.Edge{}, false
}

// finalEdges is the graph after every op the streams generated so far
// has been applied: each stream's present set covers exactly its own
// sources.
func finalEdges(streams []*stream) []graph.Edge {
	var out []graph.Edge
	for _, s := range streams {
		for e := range s.present {
			out = append(out, e)
		}
	}
	return out
}

// interleave takes the first perConn ops of each connection's stream,
// round-robin. The connections own disjoint edges, so this order
// reaches the same states a concurrent run passes through per
// connection.
func interleave(w workload, seed int64, base *graph.DiGraph, perConn int) []op {
	streams := newStreams(w, seed, base)
	out := make([]op, 0, perConn*len(streams))
	for range perConn {
		for _, s := range streams {
			out = append(out, s.next())
		}
	}
	return out
}
