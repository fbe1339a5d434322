package experiments

import (
	"fmt"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// e22Reorder withdraws the FIFO-channel assumption entirely and measures what
// the §4 election pays for surviving it. Every row sweeps the per-traversal
// reorder probability (window 40 ticks) across a batch of seeded GNP graphs
// under randomized hardware delays; the election must stay panic-free with a
// single full-domain leader, and Theorem 5's 6n bound is measured on the
// clean algorithm messages while the recovery machinery — stale-tree route
// re-derivation and the deduplicated flood transport — is counted separately.
// The interesting shape: recoveries and flood relays grow with the reorder
// rate, while the algorithm-message bound does not move, because recovery
// traffic is outside the tour economy the theorem prices.
func e22Reorder(env Env) (*Table, error) {
	const (
		n     = 24
		seeds = 25
	)
	t := &Table{
		ID:      "E22",
		Title:   "Election under non-FIFO links: 6n holds while recovery absorbs reordering",
		Columns: []string{"reorder", "runs", "elected", "avg-msgs/n", "max-msgs/n", "recoveries", "flood-relays", "violations"},
		Notes: []string{
			fmt.Sprintf("each row: %d seeded GNP(%d, 0.22) graphs (disconnected samples skipped), randomized delays C=7 P=8, reorder window 100", seeds, n),
			"msgs/n is AlgorithmMessages/n, Theorem 5's measure; the bound is 6",
			"recoveries and flood-relays are the stale-tree fallback's activations, excluded from the 6n measure",
			"the fallback needs a precise interleaving and fires rarely; election.TestReorderRepro pins a seed that hits it deterministically",
		},
	}

	return sweep(env, t, []float64{0, 0.25, 0.5, 0.7}, func(rate float64) ([]any, error) {
		var runs, elected, violations int
		var sum, peak float64
		var recov, relays int64
		for seed := int64(1); seed <= seeds; seed++ {
			g := graph.GNP(n, 0.22, seed)
			if !g.Connected() {
				continue
			}
			res, err := election.Run(g, election.AlgoToken, allStarters(n),
				env.with(sim.WithDelays(7, 8), sim.WithRandomDelays(), sim.WithSeed(seed),
					sim.WithMsgFaults(core.MsgFaults{Reorder: rate, ReorderWindow: 100}))...)
			if err != nil {
				return nil, fmt.Errorf("reorder=%g seed=%d: %w", rate, seed, err)
			}
			runs++
			if res.LeaderDomain == n && res.AlgorithmMessages <= 6*n {
				elected++
			} else {
				violations++
			}
			msgsPerN := float64(res.AlgorithmMessages) / n
			sum += msgsPerN
			peak = max(peak, msgsPerN)
			recov += res.Stats.Recoveries.Load()
			relays += res.Stats.FloodRelays.Load()
		}
		return []any{rate, runs, elected, fmt.Sprintf("%.2f", sum/float64(runs)),
			fmt.Sprintf("%.2f", peak), recov, relays, violations}, nil
	})
}
