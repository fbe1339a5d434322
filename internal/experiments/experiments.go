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
	"math"
	"slices"
	"strconv"
	"strings"

	"fastnet/internal/graph"
	"fastnet/internal/pif"
	"fastnet/internal/runner"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/traffic"
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
	Claim func(*Table) error // the verdict, recomputed from the cells; its error names the row and column that fail
}

// cells is one row of a table as a claim reads it, by column name; err is
// the first check it failed, and seen what the claim kept of earlier rows.
type cells struct {
	t    *Table
	i    int
	err  error
	seen map[string]float64
}

// each is the claim that check holds on every row, in order.
func each(check func(r *cells)) func(*Table) error {
	return func(t *Table) error {
		r := &cells{t: t, seen: map[string]float64{}}
		for r.i = range t.Rows {
			if check(r); r.err != nil {
				break
			}
		}
		return r.err
	}
}

// str is the cell in column col ("" where there is none).
func (r *cells) str(col string) string {
	if j := slices.Index(r.t.Columns, col); j >= 0 && j < len(r.t.Rows[r.i]) {
		return r.t.Rows[r.i][j]
	}
	return ""
}

// num is the cell as a number: NaN, which fails every check, where it is none.
func (r *cells) num(col string) float64 {
	if v, err := strconv.ParseFloat(r.str(col), 64); err == nil {
		return v
	}
	return math.NaN()
}

// want records that column col fails unless ok, after no earlier failure.
func (r *cells) want(col string, ok bool, why string, args ...any) *cells {
	if row := r.t.Rows[r.i]; !ok && r.err == nil {
		r.err = fmt.Errorf("%s row %d (%s), column %s = %q: %s", r.t.ID, r.i+1,
			strings.Join(row[:min(2, len(row))], " "), col, r.str(col), fmt.Sprintf(why, args...))
	}
	return r
}

func (r *cells) eq(c string, v float64) *cells { return r.want(c, r.num(c) == v, "want %g", v) }
func (r *cells) le(c string, v float64) *cells { return r.want(c, r.num(c) <= v, "want <= %.4g", v) }
func (r *cells) gt(c string, v float64) *cells { return r.want(c, r.num(c) > v, "want > %.4g", v) }

// All returns every experiment in ID order, each with its claim.
func All() []Spec {
	return []Spec{
		{ID: "E1", Title: "Broadcast cost: branching paths vs ARPANET flooding (§3)", Run: e1BroadcastVsFlooding,
			Claim: each(func(r *cells) { // branch.time is the finish time: E2's rounds plus the trigger's own activation;
				// flooding sends over every link both ways but back along the n-1 first hearings
				r.eq("branch.syscalls", r.num("n")-1).le("branch.time", 1+math.Log2(r.num("n"))).eq("flood.syscalls", 2*r.num("m")-r.num("n")+1)
			})},
		{ID: "E2", Title: "Theorem 2: broadcast time <= log2 n on every tree", Run: e2BroadcastTime,
			Claim: each(func(r *cells) { r.le("rounds", math.Log2(r.num("n"))) })},
		{ID: "E3", Title: "Theorem 3: Omega(log n) one-way broadcast on complete binary trees", Run: e3LowerBound,
			Claim: each(func(r *cells) { r.eq("rounds", math.Floor(math.Log2(r.num("n")))) })},
		{ID: "E4", Title: "The six-node example: one-shot DFS deadlocks, branching paths converge", Run: e4DeadlockExample,
			Claim: each(func(r *cells) {
				r.want("protocol", len(r.t.Rows) == 3 && r.str("protocol") == [3]string{"dfs-walk", "branching-paths", "flooding"}[r.i], "want dfs-walk, branching-paths, flooding").
					want("converged", r.str("converged") == fmt.Sprint(r.str("protocol") != "dfs-walk"), "one-shot DFS deadlocks, the others converge")
			})},
		{ID: "E5", Title: "Theorem 1: eventual consistency; O(d) rounds, O(log d) with full knowledge", Run: e5Convergence,
			Claim: each(func(r *cells) { // the paper's O(log d): 1 + log2 d is this table's measured envelope
				r.le("plain.rounds", r.num("diameter")).le("fullknowledge.rounds", 1+math.Log2(r.num("diameter")))
			})},
		{ID: "E6", Title: "Theorem 5: election in <= 6n system calls and O(n) time", Run: e6ElectionCost,
			Claim: each(func(r *cells) { r.le("tour.syscalls", 6*r.num("n")).le("time", 3*r.num("n")) })}, // 3n: the measured envelope of the paper's O(n) time; star(512) reads 3n exactly
		{ID: "E7", Title: "Classical election baselines stay Omega(n log n) under the new measure", Run: e7ElectionBaselines,
			Claim: each(func(r *cells) {
				r.le("token", 6*r.num("n")).gt("hs.ring", 6*r.num("n")).want("naive", r.str("naive") == "-" || r.num("naive") == r.num("n")*(r.num("n")-1), "want n(n-1)")
			})},
		{ID: "E8", Title: "Example 1 (C=0, P=1): binomial trees, S(k) = 2^(k-1)", Run: e8Binomial,
			Claim: closedForm(func(k float64) float64 { return math.Exp2(k - 1) })},
		{ID: "E9", Title: "Example 3 (C=1, P=1): Fibonacci growth with closed form (11)", Run: e9Fibonacci,
			Claim: closedForm(func(k float64) float64 { return math.Round(math.Pow(math.Phi, k) / math.Sqrt(5)) })},
		{ID: "E10", Title: "Example 2 (C=1, P=0): the traditional model degenerates", Run: e10Traditional,
			Claim: each(func(r *cells) { r.eq("star.finish", 1) })},
		{ID: "E11", Title: "Optimal completion times over the iP+jC grid match simulation exactly", Run: e11OptimalTime,
			Claim: each(func(r *cells) { r.le("n", r.num("S(t*)")).eq("sim.finish", r.num("t*")) })},
		{ID: "E12", Title: "Star vs optimal tree: the crossover as P/C varies (§5 punchline)", Run: e12StarVsTree,
			Claim: each(func(r *cells) { // the star's root serializes: P + C + (n-1)P at n = 64, C = 8
				r.eq("star.sim", 8+64*r.num("P")).eq("ot.sim", r.num("ot.t*")).le("ot.sim", r.num("star.sim")-1)
			})},
		{ID: "E13", Title: "Appendix: last-causal-message tree extraction and replay (Theorem 6)", Run: e13CausalTree,
			Claim: each(func(r *cells) {
				r.eq("messages", r.num("n")*(r.num("n")-1)).eq("causal", r.num("n")-1).le("replay.finish", r.num("orig.finish"))
			})},
		{ID: "E14", Title: "Footnote 1: BFS-layers broadcast — 1 time unit, needs dmax = O(n^2)", Run: e14BFSLayers,
			Claim: each(func(r *cells) { r.eq("time", 1).gt("walk.hops", r.num("n")) })},
		{ID: "E15", Title: "Extension: ANR header growth and the dmax restriction (§2)", Run: e15HeaderGrowth,
			Claim: each(func(r *cells) {
				r.want("max.header.hops", r.num("max.header.hops") <= r.num("dmax") || r.str("dmax") == "unrestricted" && r.num("max.header.hops") > r.num("n"), "want <= dmax, > n when unrestricted")
			})},
		{ID: "E16", Title: "Extension: compare-capable switching hardware (§6's open question)", Run: e16HardwareAblation,
			Claim: each(func(r *cells) {
				r.eq("hw.syscalls", 2*r.num("n")).le("hw.syscalls", min(r.num("token.syscalls"), r.num("hs.syscalls"))-1)
			})},
		{ID: "E17", Title: "Extension: gather/dissemination duality over optimal trees ([BK92] link)", Run: e17Duality,
			Claim: each(func(r *cells) { r.eq("gather.finish", r.num("t*")).eq("dissem.finish", r.num("t*")) })},
		{ID: "E18", Title: "Extension: the introduction's premise — data rides hardware, control rides software", Run: e18DataVsControl,
			Claim: each(func(r *cells) {
				r.want("transit.syscalls", (r.num("transit.syscalls") == 0) == (r.str("discipline") == traffic.Hardware.String()), "want 0 on hardware only")
			})},
		{ID: "E19", Title: "Extension: broadcast-with-feedback (PIF) — §6's other-algorithms question", Run: e19PIF,
			Claim: each(func(r *cells) { // an extension: the finish bounds are this table's measured envelope
				r.eq("syscalls", 2*r.num("n")-2).want("finish", r.num("finish") <= 2*math.Log2(r.num("n")) ||
					r.str("echo") == pif.EchoDirect.String() && r.num("finish") == r.num("n")+1, "want <= 2 log2 n, n+1 with direct acks")
			})},
		{ID: "E20", Title: "Extension: degradation under churn — convergence, syscalls, re-election latency", Run: e20Degradation,
			Claim: each(func(r *cells) { // no violation; on churn rows branching paths makes fewer system calls than flooding
				if flaps := r.eq("violations", 0).str("flaps/epoch"); r.str("protocol") == topology.ModeBranching.String() {
					r.seen[flaps] = r.num("syscalls")
				} else if r.str("leader-crash") == "-" {
					r.gt("syscalls", r.seen[flaps])
				}
			})},
		{ID: "E21", Title: "Extension: reliable delivery on lossy links — ARQ overhead and convergence vs loss", Run: e21Reliability,
			Claim: each(func(r *cells) {
				r.eq("violations", 0).want("retx", (r.num("retx") > 0) == (r.num("loss") > 0), "want retransmissions where loss > 0 only")
			})},
		{ID: "E22", Title: "Extension: election under non-FIFO links — 6n holds while recovery absorbs reordering", Run: e22Reorder,
			Claim: each(func(r *cells) { r.eq("violations", 0).eq("elected", r.num("runs")).le("max-msgs/n", 6) })},
		{ID: "E23", Title: "Extension: gray links — spurious retransmits under fixed vs adaptive RTO", Run: e23Gray,
			Claim: each(func(r *cells) { // nothing unacked; the adaptive RTO at least halves the fixed one's spurious retransmits
				switch slow := r.eq("unacked", 0).str("slow"); {
				case slow == "0":
				case r.str("rto") == "fixed":
					r.seen[slow] = r.gt("spurious", 0).num("spurious")
				default:
					r.le("spurious", r.seen[slow]/2)
				}
			})},
		{ID: "E24", Title: "Extension: open-loop overload — latency vs blocking across capacity regimes", Run: e24OpenLoop,
			Claim: each(func(r *cells) {
				r.eq("gen", r.num("del")+r.num("blocked")+r.num("dropped")).want("del", r.str("cap") != "uncapped" || r.num("del") == r.num("gen"), "want every call delivered")
			})},
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
