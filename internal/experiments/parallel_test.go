package experiments

import (
	"strings"
	"testing"
)

// slowIDs are the multi-second sweeps -short leaves out.
var slowIDs = map[string]bool{"E20": true, "E21": true, "E23": true, "E24": true}

// TestParallelTablesMatchSerial is the acceptance gate for sweep's worker
// pool: rendering any experiment with any worker count must produce exactly
// the bytes of the serial reference run.
func TestParallelTablesMatchSerial(t *testing.T) {
	render := func(s Spec, workers int) string {
		tbl, err := s.Run(Env{Workers: workers})
		if err != nil {
			t.Fatalf("%s with %d workers: %v", s.ID, workers, err)
		}
		var b strings.Builder
		tbl.Render(&b)
		return b.String()
	}
	for _, s := range All() {
		if testing.Short() && slowIDs[s.ID] {
			continue
		}
		serial := render(s, 1)
		for _, workers := range []int{3, 0} {
			if got := render(s, workers); got != serial {
				t.Errorf("%s: table with %d workers diverges from serial run\nserial:\n%s\nparallel:\n%s",
					s.ID, workers, serial, got)
			}
		}
	}
}
