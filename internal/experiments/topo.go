package experiments

import (
	"fmt"
	"math/bits"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// e1BroadcastVsFlooding reproduces §3's headline comparison: per broadcast,
// branching paths cost n system calls and O(log n) time; flooding costs
// Θ(m) system calls and up to Θ(n) time.
func e1BroadcastVsFlooding(env Env) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "broadcast cost per topology update",
		Columns: []string{"topology", "n", "m", "branch.syscalls", "branch.time", "flood.syscalls", "flood.time", "syscall.ratio"},
		Notes: []string{
			"syscalls = packet deliveries per broadcast (origin's trigger excluded)",
			"paper: branching = n-1 deliveries, O(log n) time; flooding = O(m), O(n) time",
		},
	}
	var ws []workload
	for _, n := range []int{16, 64, 256, 1024} {
		ws = append(ws, workload{fmt.Sprintf("gnp(%d)", n), graph.GNP(n, 4.0/float64(n), int64(n))})
	}
	ws = append(ws,
		workload{"grid(16x16)", graph.Grid(16, 16)},
		workload{"arpanet", graph.ARPANET()},
		workload{"path(256)", graph.Path(256)},
	)
	return sweep(env, t, ws, func(w workload) ([]any, error) {
		b, err := topology.SingleBroadcast(w.g, 0, topology.ModeBranching, env.Opts...)
		if err != nil {
			return nil, err
		}
		f, err := topology.SingleBroadcast(w.g, 0, topology.ModeFlood, env.Opts...)
		if err != nil {
			return nil, err
		}
		ratio := float64(f.Metrics.Deliveries) / float64(b.Metrics.Deliveries)
		return []any{w.name, w.g.N(), w.g.M(),
			b.Metrics.Deliveries, b.Metrics.FinishTime,
			f.Metrics.Deliveries, f.Metrics.FinishTime,
			fmt.Sprintf("%.2f", ratio)}, nil
	})
}

// e2BroadcastTime verifies Theorem 2 on many tree shapes: the measured
// broadcast time never exceeds floor(log2 n)+1 rounds.
func e2BroadcastTime(env Env) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "branching-paths broadcast time vs the log2 n bound",
		Columns: []string{"tree", "n", "rounds", "bound=floor(log2 n)+1", "ok"},
		Notes: []string{
			"rounds = finish time minus the trigger's own activation (C=0, P=1)",
		},
	}
	ws := []workload{
		{"path(1024)", graph.Path(1024)},
		{"star(1024)", graph.Star(1024)},
		{"cbt(depth 10)", graph.CompleteBinaryTree(10)},
		{"caterpillar(128x7)", graph.Caterpillar(128, 7)},
	}
	for _, seed := range []int64{1, 2, 3} {
		ws = append(ws, workload{fmt.Sprintf("randomtree(2048,seed %d)", seed), graph.RandomTree(2048, seed)})
	}
	return sweep(env, t, ws, func(w workload) ([]any, error) {
		res, err := topology.SingleBroadcast(w.g, 0, topology.ModeBranching, env.Opts...)
		if err != nil {
			return nil, err
		}
		rounds := int(res.Metrics.FinishTime) - 1
		bound := bits.Len(uint(w.g.N()))
		return []any{w.name, w.g.N(), rounds, bound, rounds <= bound}, nil
	})
}

// e3LowerBound measures broadcast rounds on complete binary trees: the
// branching-paths algorithm needs Θ(log n) rounds, matching Theorem 3's
// Ω(log n) lower bound for one-way broadcast within a constant factor.
func e3LowerBound(env Env) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "one-way broadcast rounds on complete binary trees",
		Columns: []string{"depth", "n", "rounds", "log2(n)", "rounds/log2(n)"},
		Notes: []string{
			"Theorem 3: any one-way broadcast needs Omega(log n) rounds on these trees",
		},
	}
	return sweep(env, t, []int{2, 4, 6, 8, 10, 12, 14}, func(depth int) ([]any, error) {
		g := graph.CompleteBinaryTree(depth)
		res, err := topology.SingleBroadcast(g, 0, topology.ModeBranching, env.Opts...)
		if err != nil {
			return nil, err
		}
		rounds := int(res.Metrics.FinishTime) - 1
		log2n := bits.Len(uint(g.N())) - 1
		return []any{depth, g.N(), rounds, log2n,
			fmt.Sprintf("%.2f", float64(rounds)/float64(log2n))}, nil
	})
}

// sixNodeExample builds the paper's §3 non-convergence scenario.
func sixNodeExample() (*graph.Graph, []topology.Change) {
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 4)
	g.MustAddEdge(2, 5)
	return g, []topology.Change{
		{Round: 1, U: 0, V: 3, Up: false},
		{Round: 1, U: 1, V: 4, Up: false},
		{Round: 1, U: 2, V: 5, Up: false},
	}
}

// cyclicOrder is the adversarial DFS child order of the example.
func cyclicOrder(parent core.NodeID, children []core.NodeID) []core.NodeID {
	if parent > 2 {
		return children
	}
	pref := (parent + 1) % 3
	out := make([]core.NodeID, 0, len(children))
	for _, c := range children {
		if c == pref {
			out = append(out, c)
		}
	}
	for _, c := range children {
		if c != pref {
			out = append(out, c)
		}
	}
	return out
}

// e4DeadlockExample runs the six-node example under one-shot DFS (which
// must never converge) and under branching paths and flooding (which must).
func e4DeadlockExample(env Env) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "the six-node example after three simultaneous link failures",
		Columns: []string{"protocol", "converged", "rounds.after.change", "rounds.run"},
		Notes: []string{
			"DFS uses the paper's adversarial child order; 30 rounds simulated",
		},
	}
	modes := []topology.Mode{topology.ModeDFS, topology.ModeBranching, topology.ModeFlood}
	return sweep(env, t, modes, func(mode topology.Mode) ([]any, error) {
		g, changes := sixNodeExample()
		res, err := topology.RunConvergence(g, topology.ConvOptions{
			Mode: mode, Order: cyclicOrder, Warm: true, MaxRounds: 30, SimOpts: env.Opts,
		}, changes)
		if err != nil {
			return nil, err
		}
		ran := res.Round
		if !res.Converged {
			ran = 30
		}
		return []any{mode, res.Converged, res.RoundsAfterChanges, ran}, nil
	})
}

// e5Convergence measures rounds to eventual consistency after failure
// bursts: O(d) with plain broadcasts, O(log d) when nodes broadcast all
// they know (the comment after Theorem 1).
func e5Convergence(env Env) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "rounds to eventual consistency after changes stop",
		Columns: []string{"topology", "n", "diameter", "plain.rounds", "fullknowledge.rounds"},
		Notes:   []string{"cold start: databases empty before round 1; rounds counted after the last change"},
	}
	type burst struct {
		workload
		changes []topology.Change
	}
	mk := func(name string, g *graph.Graph, seed int64) burst {
		// Fail two edges at rounds 1 and 2, restore one at round 3.
		es := g.Edges()
		a, b := es[int(seed)%len(es)], es[(int(seed)*7+3)%len(es)]
		return burst{workload{name, g}, []topology.Change{
			{Round: 1, U: a.U, V: a.V, Up: false},
			{Round: 2, U: b.U, V: b.V, Up: false},
			{Round: 3, U: a.U, V: a.V, Up: true},
		}}
	}
	bursts := []burst{
		mk("gnp(64)", graph.GNP(64, 0.08, 9), 5),
		mk("grid(8x8)", graph.Grid(8, 8), 11),
		mk("arpanet", graph.ARPANET(), 3),
		mk("path(65)", graph.Path(65), 20),
	}
	// Cold start: knowledge must still spread across the network after the
	// burst, so the plain variant needs O(d) rounds and the full-knowledge
	// variant O(log d).
	return sweep(env, t, bursts, func(w burst) ([]any, error) {
		plain, err := topology.RunConvergence(w.g, topology.ConvOptions{
			Mode: topology.ModeBranching, MaxRounds: 200, SimOpts: env.Opts,
		}, w.changes)
		if err != nil {
			return nil, err
		}
		full, err := topology.RunConvergence(w.g, topology.ConvOptions{
			Mode: topology.ModeBranching, Full: true, MaxRounds: 200, SimOpts: env.Opts,
		}, w.changes)
		if err != nil {
			return nil, err
		}
		return []any{w.name, w.g.N(), w.g.Diameter(), convLabel(plain), convLabel(full)}, nil
	})
}

func convLabel(r topology.ConvergenceResult) string {
	if !r.Converged {
		return "never"
	}
	return fmt.Sprintf("%d", r.RoundsAfterChanges)
}

// e14BFSLayers exercises footnote 1: a single-walk broadcast takes one time
// unit but needs Θ(n·d)-hop headers, so it is only legal with a relaxed
// path-length restriction.
func e14BFSLayers(env Env) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "BFS-layers walk broadcast: time 1, header Theta(n*d)",
		Columns: []string{"tree", "n", "time", "walk.hops", "legal.dmax=n", "legal.dmax=0"},
		Notes: []string{
			"time excludes the trigger activation; hops measure the single walk's length",
		},
	}
	ws := []workload{
		{"path(64)", graph.Path(64)},
		{"cbt(depth 7)", graph.CompleteBinaryTree(7)},
		{"randomtree(256)", graph.RandomTree(256, 6)},
		{"star(128)", graph.Star(128)},
	}
	return sweep(env, t, ws, func(w workload) ([]any, error) {
		res, err := topology.SingleBroadcast(w.g, 0, topology.ModeLayers, env.Opts...)
		if err != nil {
			return nil, err
		}
		withN, err := layersLegalUnderDmax(env, w.g, w.g.N())
		if err != nil {
			return nil, err
		}
		return []any{w.name, w.g.N(), res.Metrics.FinishTime - 1, res.Metrics.Hops, withN, true}, nil
	})
}

// layersLegalUnderDmax reports whether the layered walk fits within dmax.
func layersLegalUnderDmax(env Env, g *graph.Graph, dmax int) (bool, error) {
	net := sim.New(g, topology.NewMaintainer(topology.ModeLayers, false, nil),
		env.with(sim.WithDelays(0, 1), sim.WithDmax(dmax))...)
	recs := topology.RecordsForGraph(g, net.PortMap(), nil)
	net.Protocol(0).(topology.Maintainer).Preload(recs)
	net.Inject(0, 0, topology.Trigger{})
	if _, err := net.Run(); err != nil {
		return false, err
	}
	wb, ok := net.Protocol(0).(*topology.WalkBroadcast)
	if !ok {
		return false, fmt.Errorf("experiments: unexpected protocol type")
	}
	return wb.SendErrors == 0, nil
}
