package graph

// Stats summarizes the degree structure of a graph. The paper's complexity
// bounds are stated in terms of n, m, and the average in-degree d.
type Stats struct {
	Nodes      int
	Edges      int
	AvgInDeg   float64
	MaxInDeg   int
	MaxOutDeg  int
	ZeroInDeg  int // nodes with no in-neighbors (s(·,·)=0 base case)
	ZeroOutDeg int
}

// Summarize computes degree statistics for g.
func Summarize(g *DiGraph) Stats {
	st := Stats{Nodes: g.N(), Edges: g.M(), AvgInDeg: g.AvgInDegree()}
	for v := 0; v < g.N(); v++ {
		in, out := g.InDegree(v), g.OutDegree(v)
		if in > st.MaxInDeg {
			st.MaxInDeg = in
		}
		if out > st.MaxOutDeg {
			st.MaxOutDeg = out
		}
		if in == 0 {
			st.ZeroInDeg++
		}
		if out == 0 {
			st.ZeroOutDeg++
		}
	}
	return st
}

// InDegreeHistogram returns a histogram h where h[d] counts nodes with
// in-degree d.
func InDegreeHistogram(g *DiGraph) map[int]int {
	h := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		h[g.InDegree(v)]++
	}
	return h
}

// Diameter returns the length of the longest shortest path over the
// underlying (directed) graph, ignoring unreachable pairs, via BFS from
// every node. The paper uses the diameter to choose the exact-baseline
// iteration count K=35 (footnote 26). O(n(n+m)).
func Diameter(g *DiGraph) int {
	n := g.N()
	dist := make([]int, n)
	queue := make([]int, 0, n)
	diam := 0
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Out(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					if dist[u] > diam {
						diam = dist[u]
					}
					queue = append(queue, int(u))
				}
			}
		}
	}
	return diam
}
