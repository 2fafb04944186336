package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseEdgeList reads a whitespace-separated edge list ("from to" per
// line). Lines that are empty or start with '#' or '%' are skipped.
// Node ids must be non-negative integers below math.MaxInt32, so that
// the node count fits the graph's int32 ids; the graph is sized to the
// largest id seen plus one, or minNodes if larger.
func ParseEdgeList(r io.Reader, minNodes int) (*DiGraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var edges []Edge
	maxID := -1
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %q", lineno, line)
		}
		from, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad from-node %q: %w", lineno, fields[0], err)
		}
		to, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad to-node %q: %w", lineno, fields[1], err)
		}
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineno)
		}
		if from >= math.MaxInt32 || to >= math.MaxInt32 {
			return nil, fmt.Errorf("graph: line %d: node id %d past the int32 range", lineno, max(from, to))
		}
		if from > maxID {
			maxID = from
		}
		if to > maxID {
			maxID = to
		}
		edges = append(edges, Edge{from, to})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	n := maxID + 1
	if n < minNodes {
		n = minNodes
	}
	return FromEdges(n, edges), nil
}

// WriteEdgeList writes g as a "from to" edge list, one edge per line, with
// a leading comment header.
func WriteEdgeList(w io.Writer, g *DiGraph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.From, e.To); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseUpdates reads an update stream: lines of the form "+ from to" or
// "- from to". Comments and blank lines are skipped as in ParseEdgeList.
func ParseUpdates(r io.Reader) ([]Update, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var ups []Update
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want \"+|- from to\", got %q", lineno, line)
		}
		var ins bool
		switch fields[0] {
		case "+":
			ins = true
		case "-":
			ins = false
		default:
			return nil, fmt.Errorf("graph: line %d: bad op %q", lineno, fields[0])
		}
		from, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad from-node: %w", lineno, err)
		}
		to, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad to-node: %w", lineno, err)
		}
		ups = append(ups, Update{Edge: Edge{from, to}, Insert: ins})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning updates: %w", err)
	}
	return ups, nil
}

// WriteUpdates writes an update stream in the format read by ParseUpdates.
func WriteUpdates(w io.Writer, ups []Update) error {
	bw := bufio.NewWriter(w)
	for _, u := range ups {
		op := "-"
		if u.Insert {
			op = "+"
		}
		if _, err := fmt.Fprintf(bw, "%s %d %d\n", op, u.Edge.From, u.Edge.To); err != nil {
			return err
		}
	}
	return bw.Flush()
}
