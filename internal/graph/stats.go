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
