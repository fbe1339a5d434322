// Package experiments regenerates every quantitative artefact of the paper:
// one runner per experiment ID (E1..E14 for the paper's own artefacts,
// E15..E24 for extensions; see DESIGN.md's index). Every runner declares its
// points and a point → row function and hands both to sweep; the tables the
// runners return are what cmd/fastnet renders and bench_test.go wraps as
// benchmarks.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"fastnet/internal/graph"
	"fastnet/internal/runner"
	"fastnet/internal/sim"
)

// Env is what the caller of an experiment decides for it, handed down as a
// value to every driver the experiment calls.
type Env struct {
	// Workers is the worker-pool width sweep hands to runner.Map (0 = one per
	// CPU, 1 = serial). Any width produces byte-identical tables: every row is
	// a pure function of its point, and rows keep point order.
	Workers int
	// Opts are appended to the options of every sim network the experiment
	// builds, directly or through a driver (`fastnet exp -shards`, and the
	// totals sink behind `fastnet exp -v`).
	Opts []sim.Option
}

// with is own followed by the caller's options.
func (env Env) with(own ...sim.Option) []sim.Option { return append(own, env.Opts...) }

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// sweep computes one row per point on env.Workers workers and appends the
// rows to t in point order. It is how every experiment fills its table: row
// builds whatever networks its point needs and shares nothing mutable with
// the other points, so the table is the same at any worker count.
func sweep[P any](env Env, t *Table, points []P, row func(P) ([]any, error)) (*Table, error) {
	rows, err := runner.Map(env.Workers, points, row)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.addRow(r...)
	}
	return t, nil
}

// pair is one point of a two-parameter grid.
type pair[A, B any] struct {
	a A
	b B
}

// grid is every pair (a, b) with a from as and b from bs, a-major: the points
// of a table whose rows nest one parameter inside another.
func grid[A, B any](as []A, bs []B) []pair[A, B] {
	out := make([]pair[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			out = append(out, pair[A, B]{a, b})
		}
	}
	return out
}

// workload is a named graph: the point of the sweeps that run one scenario
// over several topologies.
type workload struct {
	name string
	g    *graph.Graph
}

// addRow appends a row, formatting every cell with %v.
func (t *Table) addRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// RenderCSV writes the table as RFC 4180 CSV (header row first; notes are
// omitted).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Spec describes one runnable experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Env) (*Table, error)
}

// All returns every experiment in ID order.
func All() []Spec {
	return []Spec{
		{ID: "E1", Title: "Broadcast cost: branching paths vs ARPANET flooding (§3)", Run: e1BroadcastVsFlooding},
		{ID: "E2", Title: "Theorem 2: broadcast time <= log2 n on every tree", Run: e2BroadcastTime},
		{ID: "E3", Title: "Theorem 3: Omega(log n) one-way broadcast on complete binary trees", Run: e3LowerBound},
		{ID: "E4", Title: "The six-node example: one-shot DFS deadlocks, branching paths converge", Run: e4DeadlockExample},
		{ID: "E5", Title: "Theorem 1: eventual consistency; O(d) rounds, O(log d) with full knowledge", Run: e5Convergence},
		{ID: "E6", Title: "Theorem 5: election in <= 6n system calls and O(n) time", Run: e6ElectionCost},
		{ID: "E7", Title: "Classical election baselines stay Omega(n log n) under the new measure", Run: e7ElectionBaselines},
		{ID: "E8", Title: "Example 1 (C=0, P=1): binomial trees, S(k) = 2^(k-1)", Run: e8Binomial},
		{ID: "E9", Title: "Example 3 (C=1, P=1): Fibonacci growth with closed form (11)", Run: e9Fibonacci},
		{ID: "E10", Title: "Example 2 (C=1, P=0): the traditional model degenerates", Run: e10Traditional},
		{ID: "E11", Title: "Optimal completion times over the iP+jC grid match simulation exactly", Run: e11OptimalTime},
		{ID: "E12", Title: "Star vs optimal tree: the crossover as P/C varies (§5 punchline)", Run: e12StarVsTree},
		{ID: "E13", Title: "Appendix: last-causal-message tree extraction and replay (Theorem 6)", Run: e13CausalTree},
		{ID: "E14", Title: "Footnote 1: BFS-layers broadcast — 1 time unit, needs dmax = O(n^2)", Run: e14BFSLayers},
		{ID: "E15", Title: "Extension: ANR header growth and the dmax restriction (§2)", Run: e15HeaderGrowth},
		{ID: "E16", Title: "Extension: compare-capable switching hardware (§6's open question)", Run: e16HardwareAblation},
		{ID: "E17", Title: "Extension: gather/dissemination duality over optimal trees ([BK92] link)", Run: e17Duality},
		{ID: "E18", Title: "Extension: the introduction's premise — data rides hardware, control rides software", Run: e18DataVsControl},
		{ID: "E19", Title: "Extension: broadcast-with-feedback (PIF) — §6's other-algorithms question", Run: e19PIF},
		{ID: "E20", Title: "Extension: degradation under churn — convergence, syscalls, re-election latency", Run: e20Degradation},
		{ID: "E21", Title: "Extension: reliable delivery on lossy links — ARQ overhead and convergence vs loss", Run: e21Reliability},
		{ID: "E22", Title: "Extension: election under non-FIFO links — 6n holds while recovery absorbs reordering", Run: e22Reorder},
		{ID: "E23", Title: "Extension: gray links — spurious retransmits under fixed vs adaptive RTO", Run: e23Gray},
		{ID: "E24", Title: "Extension: open-loop overload — latency vs blocking across capacity regimes", Run: e24OpenLoop},
	}
}

// Lookup finds an experiment by ID (case-insensitive).
func Lookup(id string) (Spec, bool) {
	for _, s := range All() {
		if strings.EqualFold(s.ID, id) {
			return s, true
		}
	}
	return Spec{}, false
}
