package election

import (
	"errors"
	"fmt"
	"sync/atomic"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/paths"
)

// State is a node's election outcome.
type State int

// Election states (the paper's not.leader / leader / leader.elected).
const (
	StateNotLeader State = iota + 1
	StateLeader
	StateLeaderElected
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateNotLeader:
		return "not.leader"
	case StateLeader:
		return "leader"
	case StateLeaderElected:
		return "leader.elected"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// level is a candidate's priority: domain size, ties broken by node ID.
type level struct {
	Size int
	ID   core.NodeID
}

// less orders levels lexicographically.
func (l level) less(o level) bool {
	if l.Size != o.Size {
		return l.Size < o.Size
	}
	return l.ID < o.ID
}

// Start is the injected START message that wakes a node.
type Start struct{}

// tourToken is a candidate away from home, carried inside tourMsg.
type tourToken struct {
	Cand  core.NodeID
	Size  int
	Phase int
	// Hops counts the direct messages of this tour so far (the entry hop
	// included, the eventual return hop not).
	Hops int
	// O is the OUT node through which the tour entered foreign territory.
	O core.NodeID
	// RetO is ANR(O -> origin), captured from the hardware reverse route on
	// the entry hop.
	RetO anr.Header
}

func (t tourToken) level() level { return level{Size: t.Size, ID: t.Cand} }

// tourMsg moves a candidate token one direct message.
type tourMsg struct {
	Tok tourToken
}

// returnMsg brings a candidate token home.
type returnMsg struct {
	Cand core.NodeID
	// Retire is true when the candidate must become inactive (rules 1, 2.1,
	// 2.4 and the comeback comparison).
	Retire bool
	// Capture carries the captured domain; its Dom is nil when Retire.
	Capture captureData
}

// captureData is the captured origin's bookkeeping, shipped home with the
// returning candidate (rule 2.2). Dom is the captured node's own domain, by
// reference: capture froze it (only an origin merges or starts, and a
// captured node is never an origin again), the captured node goes on reading
// it for return routes, and the capturer only reads it — the contract
// topology's broadcast message has for its records. What a message carries
// between NCUs is not a model measure; the header is.
type captureData struct {
	Dom *domain     // IN_v, OUT_v and INOUT_v, rooted at the captured origin v
	O   core.NodeID // the entry node o (in IN_v, already in the capturer's tree)
}

// announceMsg tells domain members the election result. It carries the
// branching-path plan of the leader's INOUT tree so every path start can
// relay within one activation (same mechanism as the §3 topology broadcast —
// the paper notes the election's routing technique "is very similar to the
// one used for the broadcast in Section 3").
type announceMsg struct {
	Leader core.NodeID
	Plan   *paths.Fanout
}

// floodMsg is the recovery transport for non-FIFO executions. Under
// reordering a node's retained INOUT tree can be stale — the capture data
// that would contain the entry node is still in flight — so a needed ANR
// route may not be derivable yet. Rather than panic, the message is flooded
// to its target: every node relays once per (Origin, Seq), and Back
// accumulates a valid ANR route from the current holder back to Origin (one
// reverse hop per relay, mirroring the hardware reverse-route facility), so
// a flooded tour entry still learns its return route. Floods cost extra
// system calls, counted in Stats.FloodRelays and kept out of the 6n measure:
// the algorithm degrades instead of crashing.
type floodMsg struct {
	Origin core.NodeID
	Seq    int64
	Target core.NodeID
	Back   anr.Header
	Inner  any // *tourMsg, *returnMsg, or *announceMsg
}

// floodKey dedups flood relays.
type floodKey struct {
	Origin core.NodeID
	Seq    int64
}

// Stats aggregates algorithm-message counts across all nodes of one
// network; the 6n bound of Theorem 5 is checked against TourMsgs+Returns.
type Stats struct {
	TourMsgs  atomic.Int64
	Returns   atomic.Int64
	Captures  atomic.Int64
	Waits     atomic.Int64
	Retires   atomic.Int64
	Announces atomic.Int64
	// Recoveries counts graceful degradations under non-FIFO delivery: a
	// route derivation hit a stale tree and the node fell back (direct
	// neighbor link, flood transport, or a setwise merge without the tree
	// graft) instead of panicking.
	Recoveries atomic.Int64
	// FloodRelays counts relay activations of the flood transport. They are
	// recovery overhead, not algorithm messages, so they stay outside
	// AlgorithmMessages (the 6n bound measures the FIFO-clean algorithm).
	FloodRelays atomic.Int64
}

// AlgorithmMessages is the system-call count attributed to candidate tours
// (Theorem 5's measure).
func (s *Stats) AlgorithmMessages() int64 {
	return s.TourMsgs.Load() + s.Returns.Load()
}

// Protocol is the per-node election protocol.
type Protocol struct {
	id    core.NodeID
	stats *Stats

	started bool
	state   State

	// Origin-side domain state. A node retains in/inout after capture for
	// return-route computation (the paper's "finds in node v a linear
	// length ANR to o, since o ∈ IN_v").
	isOrigin bool
	active   bool
	onTour   bool
	dom      domain

	// f is the virtual-tree parent pointer once captured: a direct route to
	// the capturer, in general not a neighbor.
	fRoute  anr.Header
	fTarget core.NodeID

	// waiting is the single parked foreign token (rule 2.3).
	waiting *tourToken

	// Flood-transport state (non-FIFO recovery); the map is made by the
	// first flood this node sees.
	floodSeq   int64
	seenFloods map[floodKey]bool
}

var _ core.Protocol = (*Protocol)(nil)

// New returns the election protocol for one node. All nodes of one network
// must share the same Stats.
func New(id core.NodeID, stats *Stats) *Protocol {
	return &Protocol{id: id, stats: stats, state: StateNotLeader}
}

// State returns the node's election outcome (valid once the network is
// quiescent).
func (p *Protocol) State() State { return p.state }

// level returns the node's current candidate level.
func (p *Protocol) level() level { return level{Size: p.dom.nIn, ID: p.id} }

// Init implements core.Protocol.
func (p *Protocol) Init(core.Env) {}

// LinkEvent implements core.Protocol. The §4 algorithm assumes a static
// topology during the election (the paper runs it after failures have been
// detected), so link changes are ignored.
func (p *Protocol) LinkEvent(core.Env, core.Port) {}

// Deliver implements core.Protocol.
func (p *Protocol) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case Start:
		p.ensureStarted(env)
	case *tourMsg:
		p.ensureStarted(env)
		tok := m.Tok
		if tok.RetO == nil {
			// Entry hop: capture the hardware reverse route as ANR(o, i).
			tok.RetO = pkt.Reverse
			if tok.O != p.id {
				env.Fail(fmt.Errorf("election: entry hop expected at %d", tok.O))
				return
			}
		}
		p.stats.TourMsgs.Add(1)
		p.onTokenArrival(env, tok)
	case *returnMsg:
		p.stats.Returns.Add(1)
		p.onComeback(env, m)
	case *announceMsg:
		p.stats.Announces.Add(1)
		if p.state != StateLeader {
			p.state = StateLeaderElected
		}
		p.relayAnnounce(env, m)
	case *floodMsg:
		key := floodKey{Origin: m.Origin, Seq: m.Seq}
		if p.seenFloods[key] {
			return
		}
		p.markFlood(key)
		// Extend the accumulated back-route by this relay hop: pkt.Reverse
		// is ANR(here -> previous holder), Back is ANR(previous holder ->
		// Origin).
		back := anr.Concat(pkt.Reverse, m.Back)
		if p.id == m.Target {
			p.consumeFlood(env, m, back)
			return
		}
		p.stats.FloodRelays.Add(1)
		p.relayFlood(env, &floodMsg{Origin: m.Origin, Seq: m.Seq, Target: m.Target, Back: back, Inner: m.Inner}, pkt.ArrivedOn)
	}
}

// flood launches the recovery transport: the message reaches target by
// component-wide dedup'd flooding instead of a derived ANR route.
func (p *Protocol) flood(env core.Env, target core.NodeID, inner any) {
	p.stats.Recoveries.Add(1)
	p.floodSeq++
	m := &floodMsg{Origin: p.id, Seq: p.floodSeq, Target: target, Back: anr.Local(), Inner: inner}
	p.markFlood(floodKey{Origin: m.Origin, Seq: m.Seq})
	p.relayFlood(env, m, anr.NCU)
}

func (p *Protocol) markFlood(key floodKey) {
	if p.seenFloods == nil {
		p.seenFloods = make(map[floodKey]bool)
	}
	p.seenFloods[key] = true
}

// relayFlood fans the flood out over every live port except the arrival one
// (single-hop routes, one multicast activation).
func (p *Protocol) relayFlood(env core.Env, m *floodMsg, arrivedOn anr.ID) {
	var hs []anr.Header
	for _, port := range env.Ports() {
		if !port.Up || port.Local == arrivedOn {
			continue
		}
		hs = append(hs, anr.OneHop(port.Local))
	}
	if len(hs) == 0 {
		return
	}
	if err := env.Multicast(hs, m); err != nil {
		env.Fail(fmt.Errorf("election: flood relay: %w", err))
	}
}

// consumeFlood delivers a flooded message at its target through the normal
// handlers, so the algorithm's accounting and rules are identical to the
// direct-route path.
func (p *Protocol) consumeFlood(env core.Env, m *floodMsg, back anr.Header) {
	switch inner := m.Inner.(type) {
	case *tourMsg:
		p.ensureStarted(env)
		tok := inner.Tok
		if tok.RetO == nil {
			// Flooded entry hop: the accumulated flood route stands in for
			// the hardware reverse route.
			tok.RetO = back
		}
		p.stats.TourMsgs.Add(1)
		p.onTokenArrival(env, tok)
	case *returnMsg:
		p.stats.Returns.Add(1)
		p.onComeback(env, inner)
	case *announceMsg:
		p.stats.Announces.Add(1)
		if p.state != StateLeader {
			p.state = StateLeaderElected
		}
		// No relay: flooded announcements target tree-orphaned members, which
		// own no branching paths.
	}
}

// relayAnnounce forwards the announcement over every branching path that
// starts at this node (one activation, one route per link). The plan's link
// IDs are handshake facts of a topology that is static for the election, so
// a refusal means the plan was built for another network: a bug, not an
// input (TestAnnounceRelayRefused reaches it with exactly that).
func (p *Protocol) relayAnnounce(env core.Env, m *announceMsg) {
	if _, err := m.Plan.Relay(env, p.id, m); err != nil {
		env.Fail(fmt.Errorf("election: announce: %w", err))
	}
}

// ensureStarted initializes the domain and launches the first tour. The
// paper: a node starts on its first START or algorithm message; the fresh
// local candidate immediately goes on tour, so an arriving token always
// finds the local candidate on tour or inactive.
func (p *Protocol) ensureStarted(env core.Env) {
	if p.started {
		return
	}
	p.started = true
	p.isOrigin = true
	p.active = true
	if err := p.dom.start(p.id, env.Ports()); err != nil {
		env.Fail(fmt.Errorf("election: start: %w", err))
		return
	}
	p.tour(env)
}

// tour starts the next capturing tour from home (the candidate must be
// active and at home).
func (p *Protocol) tour(env core.Env) {
	o, ok := p.dom.minOut()
	if !ok {
		p.becomeLeader(env)
		return
	}
	tok := tourToken{
		Cand:  p.id,
		Size:  p.dom.nIn,
		Phase: phaseOf(p.dom.nIn),
		Hops:  1,
		O:     o,
	}
	p.onTour = true
	route, err := p.dom.route(o)
	if err != nil {
		// A degraded merge left o in OUT but not in the tree: flood the
		// entry; the accumulated flood route becomes the token's RetO.
		p.flood(env, o, &tourMsg{Tok: tok})
		return
	}
	if err := env.Send(route, &tourMsg{Tok: tok}); err != nil {
		env.Fail(fmt.Errorf("election: tour send: %w", err))
	}
}

// onTokenArrival handles a visiting candidate token.
func (p *Protocol) onTokenArrival(env core.Env, tok tourToken) {
	if !p.isOrigin {
		// Rule (1): v is not an origin.
		if tok.Hops > tok.Phase {
			p.sendHome(env, tok, &returnMsg{Cand: tok.Cand, Retire: true})
			p.stats.Retires.Add(1)
			return
		}
		tok.Hops++
		if p.fRoute == nil {
			// Captured without a derivable route home (stale tree at capture
			// time): chase via the flood transport instead.
			p.flood(env, p.fTarget, &tourMsg{Tok: tok})
			return
		}
		if err := env.Send(p.fRoute, &tourMsg{Tok: tok}); err != nil {
			env.Fail(fmt.Errorf("election: chase send: %w", err))
		}
		return
	}
	// Rule (2): v is an origin.
	lv, li := p.level(), tok.level()
	switch {
	case li.less(lv): // 2.1
		p.sendHome(env, tok, &returnMsg{Cand: tok.Cand, Retire: true})
		p.stats.Retires.Add(1)
	case !p.onTour && !p.active: // 2.2
		p.captureMe(env, tok)
	case p.onTour && p.waiting == nil: // 2.3
		tokCopy := tok
		p.waiting = &tokCopy
		p.stats.Waits.Add(1)
	case p.onTour: // 2.4: another candidate is already waiting
		j := *p.waiting
		if j.level().less(tok.level()) {
			p.sendHome(env, j, &returnMsg{Cand: j.Cand, Retire: true})
			tokCopy := tok
			p.waiting = &tokCopy
		} else {
			p.sendHome(env, tok, &returnMsg{Cand: tok.Cand, Retire: true})
		}
		p.stats.Retires.Add(1)
	default:
		// Origin, active, at home: impossible — an active home candidate
		// launches a tour within the activation that made it so.
		env.Fail(errors.New("election: active at home, met a token"))
	}
}

// captureMe executes rule 2.2 at the captured origin: set the virtual-tree
// parent pointer and ship the domain data home with the visiting candidate.
func (p *Protocol) captureMe(env core.Env, tok tourToken) {
	home, ok := p.routeHome(env, tok)
	p.fRoute = home // nil under a failed derivation: chases then flood
	p.fTarget = tok.Cand
	p.isOrigin = false
	p.active = false
	p.stats.Captures.Add(1)

	m := &returnMsg{Cand: tok.Cand, Capture: captureData{Dom: &p.dom, O: tok.O}}
	if !ok {
		p.flood(env, tok.Cand, m)
		return
	}
	if err := env.Send(home, m); err != nil {
		env.Fail(fmt.Errorf("election: capture send: %w", err))
	}
}

// sendHome routes a token back to its origin: ANR(v, o) from the local
// retained INOUT tree concatenated with the carried ANR(o, origin). When no
// route is derivable the return goes home over the flood transport.
func (p *Protocol) sendHome(env core.Env, tok tourToken, m *returnMsg) {
	route, ok := p.routeHome(env, tok)
	if !ok {
		p.flood(env, tok.Cand, m)
		return
	}
	if err := env.Send(route, m); err != nil {
		env.Fail(fmt.Errorf("election: return send: %w", err))
	}
}

// routeHome derives the route back to tok's origin. Under FIFO delivery the
// derivation always succeeds (the paper's o ∈ IN_v argument); under
// reordering the retained tree can be stale — the capture data that would
// contain tok.O is still in flight — so instead of panicking the node
// re-derives from what it has: the carried reverse route when it is the
// entry node itself, the tree route via tok.O, or a direct link to the
// candidate's home. ok=false means none applies and the caller must fall
// back to the flood transport.
func (p *Protocol) routeHome(env core.Env, tok tourToken) (anr.Header, bool) {
	if p.id == tok.O {
		return tok.RetO, true
	}
	if home, err := p.dom.routeThen(tok.O, tok.RetO); err == nil {
		return home, true
	}
	if port, ok := env.PortToward(tok.Cand); ok && port.Up {
		p.stats.Recoveries.Add(1)
		return anr.OneHop(port.Local), true
	}
	return nil, false
}

// onComeback processes the candidate's return and any waiter (rules 2.3/2.4
// completion), then continues touring if still active.
func (p *Protocol) onComeback(env core.Env, m *returnMsg) {
	if !p.isOrigin || !p.onTour {
		env.Fail(errors.New("election: unexpected comeback"))
		return
	}
	p.onTour = false
	switch {
	case m.Retire:
		p.active = false
	case m.Capture.Dom != nil:
		grafted, err := p.dom.merge(m.Capture.Dom, m.Capture.O)
		if err != nil {
			env.Fail(fmt.Errorf("election: merge graft: %w", err))
			return
		}
		if !grafted {
			// Stale tree on either side (non-FIFO only): sets folded, graft
			// skipped; the flood transport serves the unreachable members.
			p.stats.Recoveries.Add(1)
		}
	}
	// Resolve the parked waiter against the updated level.
	if p.waiting != nil {
		j := *p.waiting
		p.waiting = nil
		if p.level().less(j.level()) {
			// The local candidate noticed a higher level: it retires and is
			// captured by the waiter.
			p.active = false
			p.captureMe(env, j)
			return
		}
		p.sendHome(env, j, &returnMsg{Cand: j.Cand, Retire: true})
		p.stats.Retires.Add(1)
	}
	if p.active {
		p.tour(env)
	}
}

// becomeLeader finishes the election: OUT is empty, so the domain spans the
// component. The result is announced with the §3 branching-paths broadcast
// over the INOUT tree: n-1 system calls, O(log n) additional time, and at
// most one route per link per activation (the multicast primitive's
// constraint).
func (p *Protocol) becomeLeader(env core.Env) {
	p.state = StateLeader
	p.active = false
	if p.dom.nIn <= 1 {
		return
	}
	msg := &announceMsg{Leader: p.id, Plan: p.dom.announcePlan()}
	p.relayAnnounce(env, msg)
	// Degraded merges can leave domain members out of the INOUT tree, so the
	// branching paths miss them; they learn the result by flood (ascending
	// order for determinism).
	for _, x := range p.dom.orphans() {
		p.flood(env, x, msg)
	}
}

// phaseOf is the paper's PH = floor(log2 size).
func phaseOf(size int) int {
	ph := 0
	for s := size; s > 1; s >>= 1 {
		ph++
	}
	return ph
}
