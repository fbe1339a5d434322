package experiments

import (
	"fmt"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/reliable"
	"fastnet/internal/sim"
)

// e23Send commands a node to open one reliable frame toward its neighbor.
type e23Send struct{}

// e23Node drives a reliable endpoint toward a fixed adjacent destination:
// injected e23Send commands become SendRoute calls, everything else (frames,
// acks, retransmission ticks) is the endpoint's own traffic.
type e23Node struct {
	*reliable.Node
	dst core.NodeID
}

func (p *e23Node) Deliver(env core.Env, pkt core.Packet) {
	if _, ok := pkt.Payload.(e23Send); ok {
		pt, ok := env.PortToward(p.dst)
		if !ok {
			return
		}
		if err := p.E.SendRoute(env, p.dst, anr.OneHop(pt.Local), e23Send{}); err != nil {
			env.Fail(err)
		}
		return
	}
	p.Node.Deliver(env, pkt)
}

// e23Gray degrades links instead of cutting them and measures what the
// sender-side timer pays. The fabric loses nothing — every retransmission in
// this experiment is spurious by construction — but a per-traversal slowdown
// probability inflates random hops by up to SlowFactor x SlowMax extra ticks,
// exactly the gray regime where a fixed retransmission timeout turns latency
// into duplicate traffic. Each row pits the fixed-RTO sender against the
// adaptive one (Jacobson/Karn smoothed RTT + variance, Karn's rule, clamped
// to [MinRTO, MaxRTO]) at one slowdown rate: both must still ack every frame
// (unacked stays 0 — degradation, not loss), and the spurious-retransmit
// column is the price of mis-estimating the RTT. The interesting shape: the
// fixed sender is quiet while the fabric matches its constant and pays
// steeply as slowdown grows; the adaptive sender's variance term absorbs the
// spread and keeps spurious traffic near zero across the whole sweep.
func e23Gray(env Env) (*Table, error) {
	const (
		n     = 16
		seeds = 10
		msgs  = 20
		gap   = 40
		// tickEvery spaces the endpoint-clock injections: the NCUs are serial
		// busy servers, so ticking every time unit (sw cost 1-2 each) would
		// saturate every node and inflate the baseline RTT the experiment is
		// trying to isolate. One tick per 4 time units keeps tick-processing
		// load under half an NCU and makes the endpoint clock a 4-tick grain.
		tickEvery = 4
	)
	t := &Table{
		ID:      "E23",
		Title:   "Gray links: spurious retransmits under fixed vs adaptive RTO",
		Columns: []string{"rto", "slow", "runs", "sent", "spurious", "spur/msg", "srtt", "unacked"},
		Notes: []string{
			fmt.Sprintf("each row: %d seeded GNP(%d, 0.3) graphs (disconnected samples skipped), randomized delays C=3 P=2, %d single-hop reliable messages per node %d time units apart, retransmission clock every %d units", seeds, n, msgs, gap, tickEvery),
			"slowdown profile at rate p: each traversal slowed with probability p — extra delay (SlowFactor-1)*C + [1,8] ~ 10-17 units on a ~12-unit RTT; loss zero, so every retransmission is spurious",
			"fixed sender: RTO 4 clock ticks = 16 units, tuned just above the unslowed RTT; adaptive: same base, Jacobson/Karn estimator clamped to [2, 64] ticks",
			"srtt is the mean smoothed RTT in clock ticks across senders at the end of the run (adaptive only); unacked must stay 0 — gray links degrade, they do not lose",
		},
	}

	modes := []string{"fixed", "adaptive"}
	return sweep(env, t, grid(modes, []float64{0, 0.2, 0.4, 0.6}), func(p pair[string, float64]) ([]any, error) {
		mode, rate := p.a, p.b
		var runs, unacked, srttN int
		var sent, spurious int64
		var srttSum float64
		for seed := int64(1); seed <= seeds; seed++ {
			g := graph.GNP(n, 0.3, seed)
			if !g.Connected() {
				continue
			}
			nodes := make([]*e23Node, n)
			factory := func(id core.NodeID) core.Protocol {
				cfg := reliable.Config{RTO: 4, MaxBackoff: 64}
				if mode == "adaptive" {
					cfg.Adaptive = true
					cfg.MinRTO = 2
					cfg.MaxRTO = 64
				}
				nd := &e23Node{Node: reliable.NewNode(id, cfg), dst: g.Neighbors(id)[0]}
				nodes[id] = nd
				return nd
			}
			net := sim.New(g, factory,
				env.with(sim.WithDelays(3, 2), sim.WithRandomDelays(), sim.WithSeed(seed),
					sim.WithMsgFaults(core.MsgFaults{Slowdown: rate, SlowFactor: 4, SlowMax: 8}))...)
			// The horizon leaves the last frame ample drain room even fully
			// slowed and backed off.
			horizon := core.Time(msgs*gap + 2000)
			for u := 0; u < n; u++ {
				for i := 0; i < msgs; i++ {
					net.Inject(core.Time(i*gap), core.NodeID(u), e23Send{})
				}
				for tick := core.Time(tickEvery); tick <= horizon; tick += tickEvery {
					net.Inject(tick, core.NodeID(u), reliable.Tick{})
				}
			}
			if _, err := net.Run(); err != nil {
				return nil, fmt.Errorf("%s slow=%g seed=%d: %w", mode, rate, seed, err)
			}
			runs++
			var runSRTT float64 // summed per run, then across runs: the grouping the mean's rounding pins
			for _, nd := range nodes {
				st := nd.E.Stats()
				sent += st.Sent
				spurious += st.Retransmits
				unacked += nd.E.Pending()
				if rtt, ok := nd.E.RTT(nd.dst); ok {
					runSRTT += rtt.SRTT
					srttN++
				}
			}
			srttSum += runSRTT
		}
		srtt := "-"
		if srttN > 0 {
			srtt = fmt.Sprintf("%.1f", srttSum/float64(srttN))
		}
		return []any{mode, rate, runs, sent, spurious,
			fmt.Sprintf("%.2f", float64(spurious)/float64(sent)), srtt, unacked}, nil
	})
}
