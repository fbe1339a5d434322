package election

import (
	"fmt"
	"slices"
	"sync"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// This file explores the paper's closing question — "what is the
// relationship between the power of the switching subsystem and the
// efficiency of the distributed algorithm?" — with the extended hardware
// model of §2 (a stored register plus a compare function per SS).
//
// On a ring whose switches can compare a token's key against a local
// register and update it, election becomes trivial software: every starter
// launches its ID on a full circle; the hardware discards any token whose
// key is below the register (initialized to the local ID) and records the
// maximum seen; only the maximum ID's token survives its full circle. The
// NCUs are involved only n+1 times in total (n STARTs, one surviving token)
// plus the n-1 announcement copies — the control software shrinks to a few
// lines, at the price of Θ(n²) worst-case hardware hops.

// hwToken is the circulating candidate key.
type hwToken struct {
	Key int64
}

// hwAnnounce closes the election.
type hwAnnounce struct {
	Leader core.NodeID
}

// newMaxKeyFilter returns the switching filter of the extended model: node
// v's register starts at v's own ID; a transit token is discarded when its
// key is below the register and otherwise recorded. The filter is safe for
// concurrent use (gosim).
func newMaxKeyFilter(n int) core.HopFilter {
	reg := make([]int64, n)
	for i := range reg {
		reg[i] = int64(i)
	}
	var mu sync.Mutex
	return func(at core.NodeID, payload any) bool {
		t, ok := payload.(*hwToken)
		if !ok {
			return true // other traffic passes untouched
		}
		mu.Lock()
		defer mu.Unlock()
		if t.Key < reg[at] {
			return false
		}
		reg[at] = t.Key
		return true
	}
}

// hwRing is the (almost trivial) software half of the hardware election.
type hwRing struct {
	id       core.NodeID
	circle   anr.Header // full circle back to the own NCU
	announce anr.Header // copy-path over the other n-1 nodes
	stats    *Stats
	started  bool
	state    State
}

var _ core.Protocol = (*hwRing)(nil)

func (p *hwRing) Init(core.Env) {}

func (p *hwRing) LinkEvent(core.Env, core.Port) {}

func (p *hwRing) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case Start:
		if p.started {
			return
		}
		p.started = true
		if err := env.Send(p.circle, &hwToken{Key: int64(p.id)}); err != nil {
			env.Fail(fmt.Errorf("election/hw: launch: %w", err))
		}
	case *hwToken:
		// Only the maximal key survives its own circle.
		if m.Key != int64(p.id) {
			env.Fail(fmt.Errorf("election/hw: foreign token %d", m.Key))
			return
		}
		p.stats.TourMsgs.Add(1)
		p.state = StateLeader
		if err := env.Send(p.announce, &hwAnnounce{Leader: p.id}); err != nil {
			env.Fail(fmt.Errorf("election/hw: announce: %w", err))
		}
	case *hwAnnounce:
		p.stats.Announces.Add(1)
		p.state = StateLeaderElected
	}
}

// RunHWRing executes the extended-hardware election on a ring of n >= 3
// nodes using the discrete-event runtime. All listed starters receive START
// at time 0; if none are given, every node starts.
func RunHWRing(n int, starters []core.NodeID, opts ...sim.Option) (Result, error) {
	if n < 3 {
		return Result{}, fmt.Errorf("election/hw: need a ring of >= 3 nodes, got %d", n)
	}
	g := graph.Ring(n)
	pm := core.NewPortMap(g)
	clockwise := make([]anr.ID, n) // node u's link toward u+1, which a ring has
	for u := range clockwise {
		clockwise[u], _ = pm.Toward(core.NodeID(u), core.NodeID((u+1)%n))
	}
	stats := &Stats{}
	base := []sim.Option{
		sim.WithDelays(0, 1),
		sim.WithDmax(n + 1),
		sim.WithHopFilter(newMaxKeyFilter(n)),
	}
	net := sim.New(g, func(id core.NodeID) core.Protocol {
		full := slices.Concat(clockwise[id:], clockwise[:id])
		return &hwRing{
			id:       id,
			circle:   anr.Direct(full),
			announce: anr.CopyPath(full[:n-1]),
			stats:    stats,
		}
	}, append(base, opts...)...)
	if len(starters) == 0 {
		for u := 0; u < n; u++ {
			starters = append(starters, core.NodeID(u))
		}
	}
	for _, s := range starters {
		net.Inject(0, s, Start{})
	}
	if _, err := net.Run(); err != nil {
		return Result{}, err
	}
	leader, err := validate(g, func(u core.NodeID) State {
		return net.Protocol(u).(*hwRing).state
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Leader:            leader,
		Metrics:           net.Metrics(),
		AlgorithmMessages: stats.AlgorithmMessages(),
		Stats:             stats,
	}, nil
}
