package experiments

import (
	"fmt"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/graph"
	"fastnet/internal/runner"
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

	type point struct {
		rate float64
		seed int64
	}
	var points []point
	rates := []float64{0, 0.25, 0.5, 0.7}
	for _, rate := range rates {
		for seed := int64(1); seed <= seeds; seed++ {
			points = append(points, point{rate, seed})
		}
	}
	type outcome struct {
		skipped     bool
		ok          bool
		msgsPerN    float64
		recoveries  int64
		floodRelays int64
	}
	results, err := runner.Map(env.Workers, points, func(p point) (outcome, error) {
		g := graph.GNP(n, 0.22, p.seed)
		if !g.Connected() {
			return outcome{skipped: true}, nil
		}
		starters := make([]core.NodeID, n)
		for i := range starters {
			starters[i] = core.NodeID(i)
		}
		res, err := election.Run(g, election.AlgoToken, starters,
			env.with(sim.WithDelays(7, 8), sim.WithRandomDelays(), sim.WithSeed(p.seed),
				sim.WithMsgFaults(core.MsgFaults{Reorder: p.rate, ReorderWindow: 100}))...)
		if err != nil {
			return outcome{}, fmt.Errorf("reorder=%g seed=%d: %w", p.rate, p.seed, err)
		}
		return outcome{
			ok:          res.LeaderDomain == n && res.AlgorithmMessages <= 6*n,
			msgsPerN:    float64(res.AlgorithmMessages) / n,
			recoveries:  res.Stats.Recoveries.Load(),
			floodRelays: res.Stats.FloodRelays.Load(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	for ri, rate := range rates {
		var runs, elected, violations int
		var sum, peak float64
		var recov, relays int64
		for _, o := range results[ri*seeds : (ri+1)*seeds] {
			if o.skipped {
				continue
			}
			runs++
			if o.ok {
				elected++
			} else {
				violations++
			}
			sum += o.msgsPerN
			if o.msgsPerN > peak {
				peak = o.msgsPerN
			}
			recov += o.recoveries
			relays += o.floodRelays
		}
		t.addRow(rate, runs, elected, fmt.Sprintf("%.2f", sum/float64(runs)),
			fmt.Sprintf("%.2f", peak), recov, relays, violations)
	}
	return t, nil
}
