package experiments

import (
	"fmt"

	"fastnet/internal/faults"
	"fastnet/internal/graph"
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

	// Churn rows: convergence cost vs churn rate, branching paths vs
	// flooding. Flaps heal within the epoch; the accompanying crashes leave
	// persistent damage for the databases to re-converge around. Elections
	// are off so syscalls isolate the maintenance cost. Every row is an
	// independent soak on the shared read-only graph.
	modes := []topology.Mode{topology.ModeBranching, topology.ModeFlood}
	if _, err := sweep(env, t, grid(modes, []int{1, 2, 4, 8}), func(p pair[topology.Mode, int]) ([]any, error) {
		mode, flaps := p.a, p.b
		res, err := faults.Soak(g, faults.Config{
			Seed: 1, Epochs: 6, Mode: mode, Flaps: flaps,
			Crashes: (flaps + 1) / 2, Downtime: 2, NoElection: true,
		}, env.Opts...)
		if err != nil {
			return nil, err
		}
		return []any{mode, flaps, "-", res.Epochs, res.ConvRounds, res.ConvMax,
			res.FaultFlips, res.Metrics.Syscalls(), "-", "-", "-", len(res.Violations)}, nil
	}); err != nil {
		return nil, err
	}

	// Re-election rows: latency vs leader-crash probability.
	return sweep(env, t, []float64{0, 0.5, 1}, func(pCrash float64) ([]any, error) {
		res, err := faults.Soak(g, faults.Config{Seed: 1, Epochs: 6, Flaps: 1, LeaderCrash: pCrash}, env.Opts...)
		if err != nil {
			return nil, err
		}
		avg := "-"
		if res.Elections > 0 {
			avg = fmt.Sprintf("%.1f", float64(res.ReelectTime)/float64(res.Elections))
		}
		return []any{topology.ModeBranching, 1, pCrash, res.Epochs, res.ConvRounds, res.ConvMax,
			res.FaultFlips, res.Metrics.Syscalls(), res.Elections, avg, res.ReelectMax, len(res.Violations)}, nil
	})
}
