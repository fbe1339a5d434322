package experiments

import (
	"fmt"
	"math"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/graph"
	"fastnet/internal/pif"
	"fastnet/internal/topology"
	"fastnet/internal/traffic"
)

// e15HeaderGrowth is an extension experiment: it measures the ANR header
// overhead that motivates the paper's path-length restriction (§2). Source
// routes grow linearly with the path, so the wire overhead per packet is
// k+1 bits per hop; the BFS-layers walk (footnote 1) needs Θ(n·d)-hop
// headers while every §3/§4 algorithm stays within dmax = O(n).
func e15HeaderGrowth(env Env) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "extension: ANR header growth per algorithm",
		Columns: []string{"workload", "n", "id.bits", "max.header.hops", "dmax", "avg.header.bits"},
		Notes: []string{
			"avg.header.bits = total header bits / packets; id.bits = k (per-hop copy bit extra)",
			"the layers walk needs headers far beyond dmax=n — the paper's reason to restrict path length",
		},
	}
	row := func(name string, g *graph.Graph, m core.Metrics, dmax int) []any {
		avg := "-"
		if m.Packets > 0 {
			avg = fmt.Sprintf("%.1f", float64(m.HeaderBits)/float64(m.Packets))
		}
		return []any{fmt.Sprintf("%s(%d)", name, g.N()), g.N(), core.NewPortMap(g).IDWidth(),
			m.MaxHeaderHops, dmaxLabel(dmax), avg}
	}
	ns := []int{64, 256, 1024}
	modes := []topology.Mode{topology.ModeBranching, topology.ModeLayers}
	if _, err := sweep(env, t, grid(ns, modes), func(p pair[int, topology.Mode]) ([]any, error) {
		n, mode := p.a, p.b
		g := graph.RandomTree(n, 7)
		res, err := topology.SingleBroadcast(g, 0, mode, env.Opts...)
		if err != nil {
			return nil, err
		}
		name := "broadcast/tree"
		if mode == topology.ModeLayers {
			name = "layers-walk/tree"
		}
		return row(name, g, res.Metrics, topology.DefaultDmax(mode, n)), nil
	}); err != nil {
		return nil, err
	}
	return sweep(env, t, ns, func(n int) ([]any, error) {
		g := graph.GNP(n, 4.0/float64(n), int64(n))
		res, err := election.Run(g, election.AlgoToken, allStarters(n), env.Opts...)
		if err != nil {
			return nil, err
		}
		return row("election/gnp", g, res.Metrics, election.Dmax(n)), nil
	})
}

func dmaxLabel(d int) string {
	if d == 0 {
		return "unrestricted"
	}
	return fmt.Sprintf("%d", d)
}

// e18DataVsControl quantifies the paper's introductory premise: bulk
// user-to-user traffic rides the switching hardware (zero transit system
// calls), so only the control algorithms compete for the NCU. The same
// flows pushed through a traditional store-and-forward discipline pay one
// software activation per hop and saturate relay processors.
func e18DataVsControl(env Env) (*Table, error) {
	t := &Table{
		ID:      "E18",
		Title:   "extension: data plane on hardware vs store-and-forward",
		Columns: []string{"topology", "flows x pkts", "discipline", "syscalls", "transit.syscalls", "time", "max.transit.util"},
		Notes: []string{
			"C=1, P=5 (software five times slower than a hop); flows are random src/dst pairs",
			"with ANR the relays' processors stay idle — the premise of the paper's model",
		},
	}
	type flowSet struct {
		name        string
		g           *graph.Graph
		flows, pkts int
	}
	sets := []flowSet{
		{"arpanet", graph.ARPANET(), 8, 100},
		{"grid(8x8)", graph.Grid(8, 8), 16, 100},
		{"gnp(128)", graph.GNP(128, 4.0/128, 9), 32, 50},
	}
	disciplines := []traffic.Discipline{traffic.Hardware, traffic.StoreAndForward}
	return sweep(env, t, grid(sets, disciplines), func(p pair[flowSet, traffic.Discipline]) ([]any, error) {
		w, d := p.a, p.b
		res, err := traffic.Run(w.g, traffic.RandomFlows(w.g, w.flows, w.pkts, 11), d, 1, 5, env.Opts...)
		if err != nil {
			return nil, err
		}
		return []any{w.name, fmt.Sprintf("%dx%d", w.flows, w.pkts), d,
			res.Metrics.Syscalls(), res.TransitSyscalls, res.Metrics.FinishTime,
			fmt.Sprintf("%.2f", res.MaxTransitUtilization)}, nil
	})
}

// e16HardwareAblation is an extension experiment answering the paper's
// closing question: with a register-and-compare stage in the switches (the
// §2 extended model), ring election needs only ~2n NCU involvements and a
// few lines of control software, trading software work for Θ(n²) worst-case
// hardware hops. The token algorithm and Hirschberg–Sinclair run on the
// same rings for comparison.
func e16HardwareAblation(env Env) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "extension: election with compare-capable switching hardware",
		Columns: []string{"n", "hw.syscalls", "hw.hops", "hw.time", "token.syscalls", "token.hops", "hs.syscalls", "hs.hops"},
		Notes: []string{
			"hw.syscalls counts all NCU activations incl. START injections and announce copies",
			"the hardware variant moves the comparison work into the switches: few system calls, many hops",
		},
	}
	return sweep(env, t, []int{32, 128, 512}, func(n int) ([]any, error) {
		hw, err := election.RunHWRing(n, nil, env.Opts...)
		if err != nil {
			return nil, err
		}
		ring := graph.Ring(n)
		tok, err := election.Run(ring, election.AlgoToken, allStarters(n), env.Opts...)
		if err != nil {
			return nil, err
		}
		hs, err := election.Run(ring, election.AlgoHS, allStarters(n), env.Opts...)
		if err != nil {
			return nil, err
		}
		return []any{n,
			hw.Metrics.Syscalls(), hw.Metrics.Hops, hw.Metrics.FinishTime,
			tok.Metrics.Syscalls(), tok.Metrics.Hops,
			hs.Metrics.Syscalls(), hs.Metrics.Hops}, nil
	})
}

// e19PIF answers the conclusion's "can other distributed algorithms be
// similarly improved?" with broadcast-with-feedback (PIF): the §3
// branching-paths broadcast down plus a §5 optimal-tree convergecast up
// gives O(n) system calls and O(log n) time end to end, where direct
// acknowledgements serialize the root's NCU for Θ(n) time.
func e19PIF(env Env) (*Table, error) {
	t := &Table{
		ID:      "E19",
		Title:   "extension: broadcast-with-feedback (PIF) under the new model",
		Columns: []string{"n", "echo", "syscalls", "finish", "log2n", "finish/log2n"},
		Notes: []string{
			"C=0, P=1; random trees; syscalls = broadcast deliveries + ack deliveries",
		},
	}
	ns := []int{64, 256, 1024, 4096}
	modes := []pif.EchoMode{pif.EchoOptimal, pif.EchoDirect}
	return sweep(env, t, grid(ns, modes), func(p pair[int, pif.EchoMode]) ([]any, error) {
		n, mode := p.a, p.b
		res, err := pif.Run(graph.RandomTree(n, 7), 0, mode, 0, 1, env.Opts...)
		if err != nil {
			return nil, err
		}
		log2n := math.Log2(float64(n))
		return []any{n, mode, res.Metrics.Deliveries, res.Finish,
			fmt.Sprintf("%.1f", log2n),
			fmt.Sprintf("%.2f", float64(res.Finish)/log2n)}, nil
	})
}
