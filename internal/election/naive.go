package election

import (
	"fmt"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// naive is the all-pairs exchange on a complete graph: every node sends its
// ID to every other node and picks the maximum. O(1) time under the
// traditional model but Θ(n²) system calls under the new measures — the
// strawman the paper's §4 improves on. All nodes must be started for the
// exchange to complete.
type naive struct {
	id    core.NodeID
	stats *Stats

	started bool
	best    core.NodeID
	heard   int
	state   State
}

var _ core.Protocol = (*naive)(nil)

// naiveID is the single message type: the sender's identity.
type naiveID struct {
	ID core.NodeID
}

// Init implements core.Protocol.
func (p *naive) Init(core.Env) {}

// LinkEvent implements core.Protocol.
func (p *naive) LinkEvent(core.Env, core.Port) {}

// Deliver implements core.Protocol.
func (p *naive) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case Start:
		if p.started {
			return
		}
		p.started = true
		var hs []anr.Header
		for _, port := range env.Ports() {
			hs = append(hs, anr.OneHop(port.Local))
		}
		if err := env.Multicast(hs, &naiveID{ID: p.id}); err != nil {
			env.Fail(fmt.Errorf("election/naive: send: %w", err))
			return
		}
		p.maybeDecide(env)
	case *naiveID:
		p.stats.TourMsgs.Add(1)
		if m.ID > p.best {
			p.best = m.ID
		}
		p.heard++
		p.maybeDecide(env)
	}
}

func (p *naive) maybeDecide(env core.Env) {
	if !p.started || p.heard < len(env.Ports()) {
		return
	}
	if p.best == p.id {
		p.state = StateLeader
	} else {
		p.state = StateLeaderElected
	}
}
