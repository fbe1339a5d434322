package experiments

import (
	"strings"
	"testing"

	"fastnet/internal/sim"
)

// TestTablesCutThroughInvariant is the experiment-level isolation test: every
// table renders alone, then again while a differently configured experiment —
// another worker width, sim.WithShards(2) and its own totals sink in its
// environment — runs in the same process, and the two renderings must be
// byte-identical. E1–E24 are the repo's measured-vs-paper results and build
// their networks three layers down, through every driver in the repo, so this
// is where an experiment's configuration leaking into another's would show:
// what a run is told arrives in its Env value and nowhere else. The
// multi-second churn sweeps E20/E21 are skipped in -short mode. (The name
// dates from when the second rendering was the same table under the
// per-hop-event walk, selected through a package-wide default for every
// network in the process; the walk's semantics are now checked in
// internal/sim against the reference engine.)
func TestTablesCutThroughInvariant(t *testing.T) {
	render := func(run func(Env) (*Table, error), env Env) (string, error) {
		tbl, err := run(env)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		tbl.Render(&b)
		return b.String(), nil
	}
	for _, spec := range All() {
		t.Run(spec.ID, func(t *testing.T) {
			if testing.Short() && (spec.ID == "E20" || spec.ID == "E21") {
				t.Skip("multi-second sweep; the soak isolation test covers the substrate")
			}
			alone, err := render(spec.Run, Env{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			// The neighbour: E18 relays data traffic at C >= 1, so its
			// networks really partition, and E1's rows fan out over workers.
			stop, tables := make(chan struct{}), make(chan []string)
			go func() {
				var got []string
				var totals sim.SchedTotals
				env := Env{Workers: 3, Opts: []sim.Option{sim.WithShards(2), totals.Sink()}}
				for running := true; running; {
					for _, run := range []func(Env) (*Table, error){e18DataVsControl, e1BroadcastVsFlooding} {
						s, err := render(run, env)
						if err != nil {
							s = err.Error()
						}
						got = append(got, s)
					}
					select {
					case <-stop:
						running = false
					default:
					}
				}
				if totals.Stats().Events == 0 {
					got = append(got, "the neighbour's totals sink collected nothing")
				}
				tables <- got
			}()
			beside, err := render(spec.Run, Env{Workers: 1})
			close(stop)
			neighbour := <-tables
			if err != nil {
				t.Fatal(err)
			}
			if alone != beside {
				t.Errorf("table moved when another experiment ran beside it\n--- alone ---\n%s--- beside ---\n%s", alone, beside)
			}
			for i, s := range neighbour {
				if s != neighbour[i%2] || !strings.HasPrefix(s, "E1") {
					t.Fatalf("the neighbouring experiment is not the same table every time:\n%s\nthen\n%s", neighbour[i%2], s)
				}
			}
		})
	}
}
