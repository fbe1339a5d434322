package experiments

import (
	"fmt"
	"math"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/graph"
)

func allStarters(n int) []core.NodeID {
	out := make([]core.NodeID, n)
	for i := range out {
		out[i] = core.NodeID(i)
	}
	return out
}

// e6ElectionCost verifies Theorem 5 across topologies and sizes: the token
// algorithm uses at most 6n tour system calls and O(n) time.
func e6ElectionCost(env Env) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "token election: tour system calls vs the 6n bound",
		Columns: []string{"topology", "n", "tour.syscalls", "6n", "calls/n", "time", "time/n"},
		Notes: []string{
			"tour.syscalls counts TourMsg+Return deliveries (Theorem 5's measure)",
			"all nodes start; C=0, P=1",
		},
	}
	var ws []workload
	for _, n := range []int{32, 128, 512, 2048} {
		ws = append(ws,
			workload{fmt.Sprintf("ring(%d)", n), graph.Ring(n)},
			workload{fmt.Sprintf("gnp(%d)", n), graph.GNP(n, 4.0/float64(n), int64(n))},
		)
	}
	ws = append(ws,
		workload{"complete(128)", graph.Complete(128)},
		workload{"grid(16x16)", graph.Grid(16, 16)},
		workload{"star(512)", graph.Star(512)},
	)
	return sweep(env, t, ws, func(w workload) ([]any, error) {
		n := w.g.N()
		res, err := election.Run(w.g, election.AlgoToken, allStarters(n), env.Opts...)
		if err != nil {
			return nil, err
		}
		return []any{w.name, n, res.AlgorithmMessages, 6 * n,
			fmt.Sprintf("%.2f", float64(res.AlgorithmMessages)/float64(n)),
			res.Metrics.FinishTime,
			fmt.Sprintf("%.2f", float64(res.Metrics.FinishTime)/float64(n))}, nil
	})
}

// e7ElectionBaselines compares the token algorithm with the classical
// baselines under the new measure: Hirschberg–Sinclair stays Θ(n log n) and
// the naive complete-graph exchange Θ(n²), while the token algorithm is
// linear.
func e7ElectionBaselines(env Env) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "election system calls: token vs classical baselines",
		Columns: []string{"graph", "n", "token", "hs.ring", "hs/(n log2 n)", "naive", "naive/n^2"},
		Notes: []string{
			"hs.ring runs on the ring; naive runs on the complete graph (n <= 256)",
		},
	}
	return sweep(env, t, []int{32, 64, 128, 256, 512, 1024}, func(n int) ([]any, error) {
		ring := graph.Ring(n)
		tok, err := election.Run(ring, election.AlgoToken, allStarters(n), env.Opts...)
		if err != nil {
			return nil, err
		}
		hs, err := election.Run(ring, election.AlgoHS, allStarters(n), env.Opts...)
		if err != nil {
			return nil, err
		}
		naive := "-"
		naiveRatio := "-"
		if n <= 256 {
			nv, err := election.Run(graph.Complete(n), election.AlgoNaive, allStarters(n), env.Opts...)
			if err != nil {
				return nil, err
			}
			naive = fmt.Sprintf("%d", nv.AlgorithmMessages)
			naiveRatio = fmt.Sprintf("%.2f", float64(nv.AlgorithmMessages)/float64(n*n))
		}
		return []any{fmt.Sprintf("ring(%d)", n), n, tok.AlgorithmMessages, hs.AlgorithmMessages,
			fmt.Sprintf("%.2f", float64(hs.AlgorithmMessages)/(float64(n)*math.Log2(float64(n)))),
			naive, naiveRatio}, nil
	})
}
