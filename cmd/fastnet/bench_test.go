package main

import (
	"strings"
	"testing"
)

// `fastnet bench` is gone: bench/ is the one harness. What is left is an
// error that names the bench/run.sh invocation for the form that was typed,
// and the subcommand's seven tests keep their names as rows over it.
var benchGoneRows = map[string]struct {
	args []string
	want string
}{
	"TestBenchList":                 {[]string{"bench", "-list"}, "bash bench/run.sh -list"},
	"TestBenchRunFilterInvalid":     {[]string{"bench", "-run", "(", "--list"}, "bash bench/run.sh -list"},
	"TestBenchRunFilterFrom":        {[]string{"bench", "-from", "a.json", "-compare", "b.json", "-run", "^OpenLoop"}, "bash bench/run.sh -workload all -compare <dir>"},
	"TestBenchFromArtifact":         {[]string{"bench", "-from", "a.json"}, "bash bench/run.sh -workload all -compare <dir>"},
	"TestCompareBaselineRequireAll": {[]string{"bench", "-compare=b.json", "-require-all"}, "bash bench/run.sh -workload all -compare <dir>"},
	"TestCompareBaselineRegression": {[]string{"bench", "-ids", "E1", "-micro=false", "-o", "x.json"}, "bash bench/run.sh -workload all -o <dir>"},
	"TestCompareBaselineMatchScope": {[]string{"bench"}, "bash bench/run.sh -workload all -o <dir>"},
}

// benchGoneRow runs the row named after the calling test through the real
// exit path: status 1 and exactly one line of output, ending in the
// replacement command — no usage dump.
func benchGoneRow(t *testing.T) {
	row := benchGoneRows[t.Name()]
	out, code := reexec(t, row.args...)
	if code != 1 || strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, row.want+"\n") {
		t.Fatalf("fastnet %v exited %d and printed %q, want exit 1 and one line ending in %q", row.args, code, out, row.want)
	}
}

func TestBenchList(t *testing.T)                 { benchGoneRow(t) }
func TestBenchRunFilterInvalid(t *testing.T)     { benchGoneRow(t) }
func TestBenchRunFilterFrom(t *testing.T)        { benchGoneRow(t) }
func TestBenchFromArtifact(t *testing.T)         { benchGoneRow(t) }
func TestCompareBaselineRequireAll(t *testing.T) { benchGoneRow(t) }
func TestCompareBaselineRegression(t *testing.T) { benchGoneRow(t) }
func TestCompareBaselineMatchScope(t *testing.T) { benchGoneRow(t) }
