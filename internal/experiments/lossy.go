package experiments

import (
	"fmt"

	"fastnet/internal/faults"
	"fastnet/internal/graph"
	"fastnet/internal/topology"
)

// e21Reliability withdraws §2's reliable-data-link assumption and measures
// what restoring exactly-once delivery in software costs. Every row is an
// invariant-checked soak (internal/faults) on a lossy fabric: the
// per-traversal loss rate sweeps up with proportional duplication, corruption
// and jitter riding along, and each epoch pushes a batch of end-to-end
// reliable messages (internal/reliable ARQ) through the churned topology.
// The overhead shows up in two measures the paper cares about: extra
// communication (retransmitted frames per delivered message) and extra
// broadcast rounds for the topology databases to re-converge when updates
// themselves can be lost — branching paths vs flooding. Violations would mean
// reliability broke (a lost, duplicated or phantom application); the column
// must stay zero.
func e21Reliability(env Env) (*Table, error) {
	t := &Table{
		ID:      "E21",
		Title:   "Reliable delivery on lossy links: ARQ overhead and convergence vs loss rate",
		Columns: []string{"protocol", "loss", "epochs", "conv-rounds", "conv-max", "rel-sent", "retx", "retx/msg", "dup-rx", "badsum", "syscalls", "violations"},
		Notes: []string{
			"each row is a 6-epoch soak on GNP(24, 0.25), seed 1, flaps=1 crashes=2, 16 reliable messages/epoch",
			"per-traversal fault profile at loss p: drop=p dup=p/2 corrupt=p/4 jitter=p/2",
			"retx/msg is the ARQ's communication overhead: retransmitted frames per accepted message",
			"dup-rx and badsum are receiver-side discards (dedup window, checksum) that kept delivery exactly-once",
		},
	}
	g := graph.GNP(24, 0.25, 1)

	// Every (protocol, loss) point is an independent soak over the shared
	// read-only graph.
	modes := []topology.Mode{topology.ModeBranching, topology.ModeFlood}
	return sweep(env, t, grid(modes, []float64{0, 0.1, 0.2, 0.3}), func(p pair[topology.Mode, float64]) ([]any, error) {
		mode, loss := p.a, p.b
		res, err := faults.Soak(g, faults.Config{
			Seed:       1,
			Epochs:     6,
			Mode:       mode,
			Flaps:      1,
			Crashes:    2,
			Downtime:   2,
			NoElection: true,
			Reliable:   16,
			Loss:       loss,
			Dup:        loss / 2,
			Corrupt:    loss / 4,
			Jitter:     loss / 2,
		}, env.Opts...)
		if err != nil {
			return nil, err
		}
		retx := "-"
		if res.RelSent > 0 {
			retx = fmt.Sprintf("%.2f", float64(res.RelRetrans)/float64(res.RelSent))
		}
		return []any{mode, loss, res.Epochs, res.ConvRounds, res.ConvMax,
			res.RelSent, res.RelRetrans, retx, res.RelDupes, res.RelBadSum,
			res.Metrics.Syscalls(), len(res.Violations)}, nil
	})
}
