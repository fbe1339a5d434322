package experiments

import (
	"strings"
	"testing"
)

// TestParallelTablesMatchSerial is the acceptance gate for the sweep
// worker pool: rendering an experiment with any worker count must produce
// exactly the bytes of the serial reference run.
func TestParallelTablesMatchSerial(t *testing.T) {
	specs := []Spec{
		{ID: "E1", Run: e1BroadcastVsFlooding},
		{ID: "E5", Run: e5Convergence},
	}
	if !testing.Short() {
		specs = append(specs,
			Spec{ID: "E20", Run: e20Degradation},
			Spec{ID: "E21", Run: e21Reliability},
		)
	}
	render := func(s Spec, workers int) string {
		tbl, err := s.Run(Env{Workers: workers})
		if err != nil {
			t.Fatalf("%s with %d workers: %v", s.ID, workers, err)
		}
		var b strings.Builder
		tbl.Render(&b)
		return b.String()
	}
	for _, s := range specs {
		serial := render(s, 1)
		for _, workers := range []int{3, 0} {
			if got := render(s, workers); got != serial {
				t.Errorf("%s: table with %d workers diverges from serial run\nserial:\n%s\nparallel:\n%s",
					s.ID, workers, serial, got)
			}
		}
	}
}
