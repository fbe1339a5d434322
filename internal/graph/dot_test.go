package graph

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
)

func TestDOTOutput(t *testing.T) {
	g := Path(3)
	var sb strings.Builder
	err := g.DOT(&sb, "demo",
		map[NodeID]bool{1: true},
		map[Edge]bool{{U: 1, V: 2}: true})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`graph "demo" {`,
		"1 [style=filled];",
		"0 -- 1;",
		"1 -- 2 [style=dashed];",
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestDOTDefaultName(t *testing.T) {
	var sb strings.Builder
	if err := New(1).DOT(&sb, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `graph "g" {`) {
		t.Fatalf("default name missing:\n%s", sb.String())
	}
}

// DOT writes the graph in Graphviz DOT format. Nodes listed in highlight
// are drawn filled; edges listed in dashed are drawn dashed (e.g. failed
// links).
func (g *Graph) DOT(w io.Writer, name string, highlight map[NodeID]bool, dashed map[Edge]bool) error {
	if name == "" {
		name = "g"
	}
	if _, err := fmt.Fprintf(w, "graph %q {\n  node [shape=circle];\n", name); err != nil {
		return err
	}
	var marked []NodeID
	for u := range highlight {
		if highlight[u] {
			marked = append(marked, u)
		}
	}
	sort.Slice(marked, func(i, j int) bool { return marked[i] < marked[j] })
	for _, u := range marked {
		if _, err := fmt.Fprintf(w, "  %d [style=filled];\n", u); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		attr := ""
		if dashed[e.Canon()] {
			attr = " [style=dashed]"
		}
		if _, err := fmt.Fprintf(w, "  %d -- %d%s;\n", e.U, e.V, attr); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
