package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden table hashes from the current implementation")

// cheapIDs are the experiments that finish in well under a second; -short
// runs only these.
var cheapIDs = map[string]bool{"E3": true, "E4": true, "E8": true, "E9": true, "E10": true, "E13": true}

// tableHashes renders spec's table as text and as CSV and returns the sha256
// of each, keyed "<ID>" and "<ID>.csv".
func tableHashes(t *testing.T, spec Spec) map[string]string {
	tbl, err := spec.Run(Env{Workers: 0})
	if err != nil {
		t.Fatalf("%s: %v", spec.ID, err)
	}
	var text, csv bytes.Buffer
	tbl.Render(&text)
	if err := tbl.RenderCSV(&csv); err != nil {
		t.Fatalf("%s csv: %v", spec.ID, err)
	}
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	return map[string]string{spec.ID: sum(text.Bytes()), spec.ID + ".csv": sum(csv.Bytes())}
}

// TestTablesGolden pins every experiment's rendered output (text and CSV) by
// hash, so a refactor of the experiment drivers or of anything they run
// cannot silently move a published number. Regenerate with -update-golden
// only for a change that intentionally alters a table, and say which in the
// change's notes.
func TestTablesGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_tables.json")
	golden := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
	} else if !*updateGolden {
		t.Fatalf("missing %s (run with -update-golden to create)", path)
	}
	if *updateGolden && testing.Short() {
		t.Fatal("-update-golden needs every table: run without -short")
	}
	got := map[string]string{}
	for _, spec := range All() {
		if testing.Short() && !cheapIDs[spec.ID] {
			continue
		}
		for k, v := range tableHashes(t, spec) {
			got[k] = v
		}
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
	for name, sum := range got {
		want, ok := golden[name]
		if !ok {
			t.Errorf("table %q has no committed golden (run -update-golden)", name)
		} else if sum != want {
			t.Errorf("table %q diverged from golden\n got %s\nwant %s", name, sum, want)
		}
	}
	if !testing.Short() {
		for name := range golden {
			if _, ok := got[name]; !ok {
				t.Errorf("golden table %q no longer exists", name)
			}
		}
	}
}
