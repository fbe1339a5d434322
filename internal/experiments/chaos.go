package experiments

import (
	"fmt"

	"fastnet/internal/faults"
	"fastnet/internal/graph"
	"fastnet/internal/runner"
	"fastnet/internal/topology"
)

// e20Degradation measures graceful degradation under seeded churn: how
// re-convergence rounds and system calls grow with the link-flap rate for
// the branching-paths protocol vs ARPANET flooding, and how re-election
// latency responds to leader-crash probability. Every run is a full
// invariant-checked soak (internal/faults); a non-zero violation count in a
// row would mean the protocol broke, not just slowed down.
func e20Degradation(env Env) (*Table, error) {
	t := &Table{
		ID:      "E20",
		Title:   "Degradation under churn: convergence, syscalls, re-election latency",
		Columns: []string{"protocol", "flaps/epoch", "leader-crash", "epochs", "conv-rounds", "conv-max", "flips", "syscalls", "elections", "reelect-avg", "reelect-max", "violations"},
		Notes: []string{
			"each row is a 6-epoch invariant-checked soak on GNP(24, 0.25), seed 1",
			"conv-rounds sums the broadcast rounds needed to match the ground truth after each epoch's faults",
			"re-election rows crash the elected leader with the given probability and re-elect on the largest live component",
		},
	}

	g := graph.GNP(24, 0.25, 1)

	// Churn sweep: convergence cost vs churn rate, branching paths vs
	// flooding. Flaps heal within the epoch; the accompanying crashes leave
	// persistent damage for the databases to re-converge around. Elections
	// are off so syscalls isolate the maintenance cost. Each row is an
	// independent soak on the shared read-only graph, so the sweep fans out
	// through the worker pool; rows come back in input order.
	type churnPoint struct {
		mode     topology.Mode
		flapRate int
	}
	var churn []churnPoint
	for _, mode := range []topology.Mode{topology.ModeBranching, topology.ModeFlood} {
		for _, flapRate := range []int{1, 2, 4, 8} {
			churn = append(churn, churnPoint{mode, flapRate})
		}
	}
	churnRes, err := runner.Map(env.Workers, churn, func(p churnPoint) (*faults.Result, error) {
		return faults.Soak(g, faults.Config{
			Seed:       1,
			Epochs:     6,
			Mode:       p.mode,
			Flaps:      p.flapRate,
			Crashes:    (p.flapRate + 1) / 2,
			Downtime:   2,
			NoElection: true,
		}, env.Opts...)
	})
	if err != nil {
		return nil, err
	}
	for i, res := range churnRes {
		t.addRow(churn[i].mode, churn[i].flapRate, "-", res.Epochs, res.ConvRounds, res.ConvMax,
			res.FaultFlips, res.Metrics.Syscalls(), "-", "-", "-", len(res.Violations))
	}

	// Re-election sweep: latency vs leader-crash probability.
	pCrashes := []float64{0, 0.5, 1}
	electRes, err := runner.Map(env.Workers, pCrashes, func(pCrash float64) (*faults.Result, error) {
		return faults.Soak(g, faults.Config{
			Seed:        1,
			Epochs:      6,
			Flaps:       1,
			LeaderCrash: pCrash,
		}, env.Opts...)
	})
	if err != nil {
		return nil, err
	}
	for i, res := range electRes {
		avg := "-"
		if res.Elections > 0 {
			avg = fmt.Sprintf("%.1f", float64(res.ReelectTime)/float64(res.Elections))
		}
		t.addRow(topology.ModeBranching, 1, pCrashes[i], res.Epochs, res.ConvRounds, res.ConvMax,
			res.FaultFlips, res.Metrics.Syscalls(), res.Elections, avg, res.ReelectMax, len(res.Violations))
	}
	return t, nil
}
