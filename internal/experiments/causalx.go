package experiments

import (
	"fmt"

	"fastnet/internal/anr"
	"fastnet/internal/causal"
	"fastnet/internal/core"
	"fastnet/internal/globalfn"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/trace"
)

// wasteful is the E13 workload: a correct but redundant computation on the
// complete graph — every node multicasts its input to everyone; the root
// decides after hearing all inputs. Only the messages into the root are
// causal.
type wasteful struct {
	id    core.NodeID
	heard int
}

func (f *wasteful) Init(core.Env)                 {}
func (f *wasteful) LinkEvent(core.Env, core.Port) {}
func (f *wasteful) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Injected {
		var hs []anr.Header
		for _, port := range env.Ports() {
			hs = append(hs, anr.OneHop(port.Local))
		}
		if err := env.Multicast(hs, int(f.id)); err != nil {
			env.Fail(err)
		}
		return
	}
	f.heard++
}

// e13CausalTree reproduces the appendix's constructive argument: classify
// the messages of a redundant execution, extract the last-causal-message
// spanning tree (Lemma A.3), and replay it as a tree-based algorithm that
// finishes no later than the original run.
func e13CausalTree(env Env) (*Table, error) {
	p := globalfn.Params{C: 1, P: 1}
	t := &Table{
		ID:      "E13",
		Title:   "causal-message analysis of a redundant all-to-all computation",
		Columns: []string{"n", "messages", "causal", "orig.finish", "replay.finish", "replay<=orig"},
		Notes:   []string{fmt.Sprintf("workload: all-to-all input exchange on K_n with C=%d, P=%d", p.C, p.P)},
	}
	return sweep(env, t, []int{8, 16, 32, 64}, func(n int) ([]any, error) {
		g := graph.Complete(n)
		buf := trace.NewSerial(0)
		net := sim.New(g, func(id core.NodeID) core.Protocol {
			return &wasteful{id: id}
		}, env.with(sim.WithDelays(core.Time(p.C), core.Time(p.P)), sim.WithTrace(buf))...)
		for u := 0; u < n; u++ {
			net.Inject(0, core.NodeID(u), "start")
		}
		origFinish, err := net.Run()
		if err != nil {
			return nil, err
		}
		a, err := causal.Analyze(buf.Events(), 0)
		if err != nil {
			return nil, err
		}
		parents, err := a.SpanningTree(n)
		if err != nil {
			return nil, err
		}
		tree, _ := causal.ToAggregationTree(parents, 0)
		res, err := globalfn.Execute(tree, p, make([]globalfn.Value, n), globalfn.Sum, true, env.Opts...)
		if err != nil {
			return nil, err
		}
		return []any{n, a.Messages, a.CausalCount(), origFinish, res.Finish,
			core.Time(res.Finish) <= origFinish}, nil
	})
}
