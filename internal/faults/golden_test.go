package faults_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fastnet/internal/faults"
	"fastnet/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden soak lines from the current implementation")

// goldenSoaks pin full soak result lines (the byte-identical repro target)
// for faults.GoldenConfigs, a small matrix of configs.
func goldenSoaks() map[string]func() (string, error) {
	soaks := map[string]func() (string, error){}
	for name, cfg := range faults.GoldenConfigs {
		soaks[name] = func() (string, error) {
			g := graph.GNP(20, 0.3, 2)
			res, err := faults.Soak(g, cfg)
			if err != nil {
				return "", err
			}
			if !res.OK() {
				return "", fmt.Errorf("unexpected violations: %v", res.Violations)
			}
			return res.Line(), nil
		}
	}
	return soaks
}

// TestGoldenSoakLines locks the soak driver's repro contract: for pinned
// seeds the one-line result summary is a byte-identical function of the
// config on the discrete-event runtime; a perf refactor must not move it.
// The lines were re-pinned once, when cut-through switching intentionally
// changed same-instant dispatch order (only "lossy-reliable" actually moved
// — the churn configs' lines were insensitive to the interleave);
// cutthrough_test.go holds the fused-vs-unfused equivalence evidence that
// gated the re-pin, and docs/PERF.md the argument.
func TestGoldenSoakLines(t *testing.T) {
	path := filepath.Join("testdata", "golden_soak_lines.json")
	golden := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
	} else if !*updateGolden {
		t.Fatalf("missing %s (run with -update-golden to create)", path)
	}
	got := map[string]string{}
	for name, run := range goldenSoaks() {
		line, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = line
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	for name, want := range golden {
		if got[name] != want {
			t.Errorf("soak %q line diverged\n got %s\nwant %s", name, got[name], want)
		}
	}
	for name := range got {
		if _, ok := golden[name]; !ok {
			t.Errorf("soak %q has no committed golden (run -update-golden)", name)
		}
	}
}
