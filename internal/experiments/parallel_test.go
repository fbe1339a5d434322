package experiments

import "testing"

// TestParallelTablesMatchSerial is the acceptance gate for sweep's worker
// pool: every table built on 3 workers must render to its pins, the bytes of
// the serial run (TestTablesGolden checks one worker per CPU).
func TestParallelTablesMatchSerial(t *testing.T) {
	eachSpec(t, func(t *testing.T, spec Spec) {
		if d := pinDiff(build(t, spec, 3)); d != "" {
			t.Errorf("with 3 workers: %s", d)
		}
	})
}
