package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllSpecsListed(t *testing.T) {
	specs := All()
	if len(specs) != 24 {
		t.Fatalf("%d specs, want 24", len(specs))
	}
	for i, s := range specs {
		want := "E" + strconv.Itoa(i+1)
		if s.ID != want {
			t.Fatalf("spec %d has ID %s, want %s", i, s.ID, want)
		}
		if s.Title == "" || s.Run == nil || s.Claim == nil {
			t.Fatalf("spec %s incomplete", s.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("e6"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("unknown ID must fail")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "bbbb"},
		Notes:   []string{"a note"},
	}
	tbl.addRow(1, "x")
	tbl.addRow("longer", 2)
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"EX — demo", "a       bbbb", "longer", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// played builds spec's table at width 1 and checks its shape, its claim and
// its pins.
func played(t *testing.T, spec Spec) {
	tbl := build(t, spec, 1)
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", spec.ID)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("%s: row %v does not match columns %v", spec.ID, row, tbl.Columns)
		}
	}
	if err := spec.Claim(tbl); err != nil {
		t.Error(err)
	}
	if d := pinDiff(tbl); d != "" {
		t.Error(d)
	}
}

func TestRunCheapExperiments(t *testing.T) {
	for _, spec := range All() {
		if !slow[spec.ID] {
			played(t, spec)
		}
	}
}

func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("TestRunCheapExperiments plays what -short plays")
	}
	eachSpec(t, played)
}

// claim fails t unless experiment id's claim holds on its width-1 table.
func claim(t *testing.T, id string) {
	spec, _ := Lookup(id)
	if err := spec.Claim(build(t, spec, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestExperimentAssertions: E4's claim, the paper's core qualitative one —
// one-shot DFS deadlocks on the six-node example, branching paths and
// flooding converge.
func TestExperimentAssertions(t *testing.T) { claim(t, "E4") }

// TestE23AdaptiveBeatsFixed: E23's claim — on a gray fabric the adaptive RTO
// at least halves the fixed sender's spurious retransmissions at every
// nonzero slowdown, and neither leaves a frame unacked.
func TestE23AdaptiveBeatsFixed(t *testing.T) {
	if testing.Short() {
		t.Skip("E23 sweep skipped in -short mode")
	}
	claim(t, "E23")
}
