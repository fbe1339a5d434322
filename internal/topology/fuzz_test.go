package topology

import (
	"testing"

	"fastnet/internal/graph"
)

// FuzzFaultSchedule decodes arbitrary bytes into a link-fault schedule and
// drives the full-knowledge branching-paths protocol through it: no
// schedule may panic the runtime, and once the changes stop the databases
// must match the ground truth within the Theorem 1 budget.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{3, 1, 0, 3, 2, 1})                   // flap one edge down and up
	f.Add([]byte{0, 1, 0, 1, 1, 0, 2, 1, 0})          // correlated cut
	f.Add([]byte{5, 1, 0, 9, 1, 0, 5, 3, 1, 9, 3, 1}) // cut then heal later

	f.Fuzz(func(t *testing.T, data []byte) {
		g := graph.GNP(10, 0.4, 6)
		edges := g.Edges()
		if len(edges) == 0 {
			t.Skip("degenerate graph")
		}
		// Three bytes per change: edge index, round (1..8), direction.
		var changes []Change
		last := 0
		for i := 0; i+2 < len(data) && len(changes) < 24; i += 3 {
			e := edges[int(data[i])%len(edges)]
			round := 1 + int(data[i+1])%8
			if round > last {
				last = round
			}
			changes = append(changes, Change{
				Round: round, U: e.U, V: e.V, Up: data[i+2]&1 == 1,
			})
		}
		res, err := RunConvergence(g, ConvOptions{
			Mode:      ModeBranching,
			Full:      true,
			MaxRounds: last + g.N() + 10,
		}, changes)
		if err != nil {
			t.Fatalf("schedule %v: %v", changes, err)
		}
		if !res.Converged {
			t.Fatalf("schedule %v: no convergence within %d rounds after the last change",
				changes, g.N()+10)
		}
	})
}
