package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestParseEdgeList(t *testing.T) {
	in := `# comment
0 1
1 2

% another comment
2 0
`
	g, err := ParseEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(2, 0) {
		t.Fatal("missing edge 2→0")
	}
}

func TestParseEdgeListMinNodes(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 {
		t.Fatalf("N=%d, want 10", g.N())
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "a b\n", "0 x\n", "-1 2\n", "0 3000000000\n", "2147483647 0\n"}
	for _, c := range cases {
		if _, err := ParseEdgeList(strings.NewReader(c), 0); err == nil {
			t.Fatalf("input %q: want error", c)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {3, 0}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseEdgeList(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip N=%d M=%d", g2.N(), g2.M())
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.From, e.To) {
			t.Fatalf("lost edge %v", e)
		}
	}
}

// FuzzParseEdgeList: any input either returns an error or parses to a
// graph that round-trips through WriteEdgeList and ParseEdgeList, with
// its own node count as minNodes, to the same N and Edges. Inputs with a
// digit run longer than 4 are skipped, so no input asks for more than
// 10⁴ nodes; TestParseEdgeListErrors covers ids past the int32 range.
func FuzzParseEdgeList(f *testing.F) {
	f.Add([]byte("# comment\n0 1\n1 2\n\n% other\n2 0\n"))
	f.Add([]byte("0 0\n3 1 extra\n\t5  2\n"))
	f.Add([]byte("+1 -0\n1 1\n"))
	f.Add([]byte("0 x\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		run := 0
		for _, b := range data {
			if b >= '0' && b <= '9' {
				run++
			} else {
				run = 0
			}
			if run > 4 {
				return
			}
		}
		g, err := ParseEdgeList(bytes.NewReader(data), 0)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ParseEdgeList(&buf, g.N())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", buf.String(), err)
		}
		if g2.N() != g.N() || !slices.Equal(g2.Edges(), g.Edges()) {
			t.Fatalf("round trip: N %d → %d, edges %v → %v", g.N(), g2.N(), g.Edges(), g2.Edges())
		}
	})
}

func TestParseUpdates(t *testing.T) {
	in := "+ 0 1\n- 2 3\n# skip\n"
	ups, err := ParseUpdates(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Fatalf("got %d updates", len(ups))
	}
	if !ups[0].Insert || ups[0].Edge != (Edge{0, 1}) {
		t.Fatalf("ups[0] = %v", ups[0])
	}
	if ups[1].Insert || ups[1].Edge != (Edge{2, 3}) {
		t.Fatalf("ups[1] = %v", ups[1])
	}
}

func TestParseUpdatesErrors(t *testing.T) {
	cases := []string{"* 0 1\n", "+ 0\n", "+ a 1\n", "+ 1 b\n"}
	for _, c := range cases {
		if _, err := ParseUpdates(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q: want error", c)
		}
	}
}

func TestUpdatesRoundTrip(t *testing.T) {
	ups := []Update{{Edge{0, 1}, true}, {Edge{5, 2}, false}}
	var buf bytes.Buffer
	if err := WriteUpdates(&buf, ups); err != nil {
		t.Fatal(err)
	}
	got, err := ParseUpdates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != ups[0] || got[1] != ups[1] {
		t.Fatalf("round trip %v", got)
	}
}
