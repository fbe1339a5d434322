package experiments

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the pinned tables in testdata from the current implementation")

// slow are the longest sweeps: the only experiments -short leaves out.
var slow = map[string]bool{"E20": true, "E21": true, "E23": true, "E24": true}

// eachSpec runs check on every experiment as a subtest named by its ID; under
// -short, on all but the slow ones.
func eachSpec(t *testing.T, check func(t *testing.T, spec Spec)) {
	for _, spec := range All() {
		t.Run(spec.ID, func(t *testing.T) {
			if testing.Short() && slow[spec.ID] {
				t.Skip("-short leaves out the slowest sweeps")
			}
			check(t, spec)
		})
	}
}

// build runs spec on workers workers.
func build(t *testing.T, spec Spec, workers int) *Table {
	t.Helper()
	tbl, err := spec.Run(Env{Workers: workers})
	if err != nil {
		t.Fatalf("%s with %d workers: %v", spec.ID, workers, err)
	}
	return tbl
}

// render is tbl's text and CSV.
func render(tbl *Table) (text, cs string) {
	var tb, cb strings.Builder
	tbl.Render(&tb)
	_ = tbl.RenderCSV(&cb) // a strings.Builder does not fail
	return tb.String(), cb.String()
}

// pin is the content of testdata/name ("" when there is none).
func pin(name string) string {
	b, _ := os.ReadFile(filepath.Join("testdata", name))
	return string(b)
}

// pinDiff is "" when tbl renders to testdata/<ID>.txt and <ID>.csv byte for
// byte. Otherwise it names the first cell that differs (row 0 is the header),
// or, where every cell agrees, the first line of text.
func pinDiff(tbl *Table) string {
	text, cs := render(tbl)
	if text == pin(tbl.ID+".txt") && cs == pin(tbl.ID+".csv") {
		return ""
	}
	got, _ := csv.NewReader(strings.NewReader(cs)).ReadAll()
	pinned, _ := csv.NewReader(strings.NewReader(pin(tbl.ID + ".csv"))).ReadAll()
	for i := range max(len(got), len(pinned)) {
		g, p := at(got, i), at(pinned, i)
		for j := range max(len(g), len(p)) {
			if at(g, j) != at(p, j) {
				return fmt.Sprintf("%s row %d (%s), column %s: got %q, pinned %q",
					tbl.ID, i, strings.Join(g[:min(2, len(g))], " "), at(tbl.Columns, j), at(g, j), at(p, j))
			}
		}
	}
	return lineDiff(tbl.ID+".txt", text, pin(tbl.ID+".txt"))
}

// lineDiff names the first line where got and pinned differ ("" if none).
func lineDiff(name, got, pinned string) string {
	g, p := strings.Split(got, "\n"), strings.Split(pinned, "\n")
	for i := range max(len(g), len(p)) {
		if at(g, i) != at(p, i) {
			return fmt.Sprintf("%s line %d: got %q, pinned %q", name, i+1, at(g, i), at(p, i))
		}
	}
	return ""
}

// at is s[i], or the zero value past its end.
func at[T any](s []T, i int) T {
	var zero T
	if i < len(s) {
		return s[i]
	}
	return zero
}

// TestTablesGolden pins every experiment's rendered output, text and CSV,
// as the bytes of testdata/E<n>.txt and E<n>.csv, so a refactor of the
// experiment drivers or of anything they run cannot silently move a published
// number; a table that moves names its first changed cell. Regenerate the
// pins with `go test ./internal/experiments -run TestTablesGolden
// -update-golden` only for a change that intentionally alters a table, and
// say which in the change's notes.
func TestTablesGolden(t *testing.T) {
	eachSpec(t, func(t *testing.T, spec Spec) {
		tbl := build(t, spec, 0)
		if !*updateGolden {
			if d := pinDiff(tbl); d != "" {
				t.Error(d)
			}
			return
		}
		text, cs := render(tbl)
		for name, data := range map[string]string{spec.ID + ".txt": text, spec.ID + ".csv": cs} {
			if err := os.WriteFile(filepath.Join("testdata", name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	})
}
