package election

import (
	"fmt"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// hsRing is the Hirschberg–Sinclair election on a bidirectional ring: the
// classical O(n log n)-message algorithm standing in for the paper's
// Ω(n log n) baselines [B80, PKR84, KMZ84]. Every message travels one hop and
// costs one system call, so its system-call complexity is Θ(n log n) under
// the new measures as well.
type hsRing struct {
	id    core.NodeID
	stats *Stats

	started   bool
	candidate bool
	phase     int
	replies   int
	state     State
}

var _ core.Protocol = (*hsRing)(nil)

// hsProbe travels outward up to TTL hops.
type hsProbe struct {
	ID    core.NodeID
	Phase int
	TTL   int
}

// hsReply travels back to the probing candidate.
type hsReply struct {
	ID    core.NodeID
	Phase int
}

// hsElected circulates the final result around the ring.
type hsElected struct {
	Leader core.NodeID
}

// Init implements core.Protocol.
func (p *hsRing) Init(core.Env) {}

// LinkEvent implements core.Protocol.
func (p *hsRing) LinkEvent(core.Env, core.Port) {}

// Deliver implements core.Protocol.
func (p *hsRing) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case Start:
		p.start(env)
	case *hsProbe:
		p.start(env)
		p.stats.TourMsgs.Add(1)
		p.onProbe(env, m, pkt.ArrivedOn)
	case *hsReply:
		p.stats.Returns.Add(1)
		p.onReply(env, m, pkt.ArrivedOn)
	case *hsElected:
		p.stats.Announces.Add(1)
		if m.Leader == p.id {
			return // the announcement came full circle
		}
		p.state = StateLeaderElected
		p.forward(env, pkt.ArrivedOn, m)
	}
}

func (p *hsRing) start(env core.Env) {
	if p.started {
		return
	}
	p.started = true
	p.candidate = true
	p.phase = 0
	p.probeBoth(env)
}

func (p *hsRing) probeBoth(env core.Env) {
	probe := &hsProbe{ID: p.id, Phase: p.phase, TTL: 1 << p.phase}
	var hs []anr.Header
	for _, port := range env.Ports() {
		hs = append(hs, anr.OneHop(port.Local))
	}
	if err := env.Multicast(hs, probe); err != nil {
		env.Fail(fmt.Errorf("election/hs: probe: %w", err))
	}
}

func (p *hsRing) onProbe(env core.Env, m *hsProbe, arrived anr.ID) {
	switch {
	case m.ID == p.id:
		// The probe circumnavigated the ring: this node wins.
		p.state = StateLeader
		p.candidate = false
		p.forward(env, arrived, &hsElected{Leader: p.id})
	case m.ID < p.id:
		// Swallowed: the probing candidate is weaker.
	default:
		p.candidate = false
		if m.TTL > 1 {
			p.forward(env, arrived, &hsProbe{ID: m.ID, Phase: m.Phase, TTL: m.TTL - 1})
		} else {
			p.reply(env, arrived, &hsReply{ID: m.ID, Phase: m.Phase})
		}
	}
}

func (p *hsRing) onReply(env core.Env, m *hsReply, arrived anr.ID) {
	if m.ID != p.id {
		p.forward(env, arrived, m)
		return
	}
	if m.Phase != p.phase || !p.candidate {
		return
	}
	p.replies++
	if p.replies == 2 {
		p.replies = 0
		p.phase++
		p.probeBoth(env)
	}
}

// forward sends the payload out of the port opposite to arrival.
func (p *hsRing) forward(env core.Env, arrived anr.ID, payload any) {
	for _, port := range env.Ports() {
		if port.Local == arrived {
			continue
		}
		if err := env.Send(anr.OneHop(port.Local), payload); err != nil {
			env.Fail(fmt.Errorf("election/hs: forward: %w", err))
		}
		return
	}
}

// reply sends the payload back out of the arrival port.
func (p *hsRing) reply(env core.Env, arrived anr.ID, payload any) {
	if err := env.Send(anr.OneHop(arrived), payload); err != nil {
		env.Fail(fmt.Errorf("election/hs: reply: %w", err))
	}
}
