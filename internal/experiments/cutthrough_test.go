package experiments

import (
	"strings"
	"testing"

	"fastnet/internal/sim"
)

// TestTablesCutThroughInvariant is the experiment-level isolation test: every
// table renders to its pins while a differently configured experiment —
// another worker width, sim.WithShards(2) and its own totals sink in its
// environment — runs in the same process, and the neighbour renders the same
// two tables on every pass. E1–E24 are the repo's measured-vs-paper results
// and build their networks three layers down, through every driver in the
// repo, so this is where an experiment's configuration leaking into
// another's would show: what a run is told arrives in its Env value and
// nowhere else. (The name dates from when the second rendering was the same
// table under the per-hop-event walk, selected through a package-wide default
// for every network in the process; the walk's semantics are now checked in
// internal/sim against the reference engine.)
func TestTablesCutThroughInvariant(t *testing.T) {
	eachSpec(t, func(t *testing.T, spec Spec) {
		// The neighbour: E18 relays data traffic at C >= 1, so its networks
		// really partition, and E1's rows fan out over workers.
		stop, tables := make(chan struct{}), make(chan []string)
		go func() {
			var got []string
			var totals sim.SchedTotals
			env := Env{Workers: 3, Opts: []sim.Option{sim.WithShards(2), totals.Sink()}}
			for running := true; running; {
				for _, run := range []func(Env) (*Table, error){e18DataVsControl, e1BroadcastVsFlooding} {
					if tbl, err := run(env); err != nil {
						got = append(got, err.Error())
					} else {
						text, _ := render(tbl)
						got = append(got, text)
					}
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
		tbl, err := spec.Run(Env{Workers: 1})
		close(stop)
		neighbour := <-tables
		if err != nil {
			t.Fatal(err)
		}
		if d := pinDiff(tbl); d != "" {
			t.Errorf("table moved when another experiment ran beside it: %s", d)
		}
		for i, s := range neighbour {
			if s != neighbour[i%2] || !strings.HasPrefix(s, "E1") {
				t.Fatalf("the neighbouring experiment is not the same table every time:\n%s\nthen\n%s", neighbour[i%2], s)
			}
		}
	})
}
