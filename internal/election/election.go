package election

import (
	"fmt"
	"sort"
	"sync/atomic"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
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

// Level is a candidate's priority: domain size, ties broken by node ID.
type Level struct {
	Size int
	ID   core.NodeID
}

// Less orders levels lexicographically.
func (l Level) Less(o Level) bool {
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

func (t tourToken) level() Level { return Level{Size: t.Size, ID: t.Cand} }

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
	// Capture carries the captured domain; nil when Retire.
	Capture *captureData
}

// captureData is the captured origin's bookkeeping, shipped home with the
// returning candidate (rule 2.2).
type captureData struct {
	From core.NodeID // the captured origin v
	In   []core.NodeID
	Out  []core.NodeID
	Tree []TreeEntry // INOUT_v in parent-before-child order, rooted at From
	O    core.NodeID // the entry node o (in IN_v, already in the capturer's tree)
}

// announceSpec is one branching path of the leader announcement: the start
// node and the per-hop link IDs of its chain (same mechanism as the §3
// topology broadcast — the paper notes the election's routing technique "is
// very similar to the one used for the broadcast in Section 3").
type announceSpec struct {
	Start core.NodeID
	Links []anr.ID
}

// announceMsg tells domain members the election result. It carries the
// branching-path decomposition of the leader's INOUT tree so every path
// start can relay within one activation.
type announceMsg struct {
	Leader core.NodeID
	Routes []announceSpec
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
	in       map[core.NodeID]bool
	out      map[core.NodeID]bool
	inout    *inoutTree

	// f is the virtual-tree parent pointer once captured: a direct route to
	// the capturer, in general not a neighbor.
	fRoute  anr.Header
	fTarget core.NodeID

	// waiting is the single parked foreign token (rule 2.3).
	waiting *tourToken

	// Flood-transport state (non-FIFO recovery).
	floodSeq   int64
	seenFloods map[floodKey]bool
}

var _ core.Protocol = (*Protocol)(nil)

// New returns the election protocol for one node. All nodes of one network
// must share the same Stats.
func New(id core.NodeID, stats *Stats) *Protocol {
	return &Protocol{id: id, stats: stats, state: StateNotLeader, seenFloods: make(map[floodKey]bool)}
}

// State returns the node's election outcome (valid once the network is
// quiescent).
func (p *Protocol) State() State { return p.state }

// Level returns the node's current candidate level.
func (p *Protocol) Level() Level { return Level{Size: len(p.in), ID: p.id} }

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
				panic(fmt.Sprintf("election: entry hop reached %d, expected %d", p.id, tok.O))
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
		p.seenFloods[key] = true
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
	p.seenFloods[floodKey{Origin: m.Origin, Seq: m.Seq}] = true
	p.relayFlood(env, m, anr.NCU)
}

// relayFlood fans the flood out over every live port except the arrival one
// (single-hop routes, one multicast activation).
func (p *Protocol) relayFlood(env core.Env, m *floodMsg, arrivedOn anr.ID) {
	var hs []anr.Header
	for _, port := range env.Ports() {
		if !port.Up || port.Local == arrivedOn {
			continue
		}
		hs = append(hs, anr.Direct([]anr.ID{port.Local}))
	}
	if len(hs) == 0 {
		return
	}
	if err := env.Multicast(hs, m); err != nil {
		panic(fmt.Sprintf("election: flood relay: %v", err))
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
// starts at this node (one activation, one route per link). Routes is
// sorted by Start (announceRoutes's contract), so this node's paths are a
// contiguous run found by binary search rather than a scan of all paths.
func (p *Protocol) relayAnnounce(env core.Env, m *announceMsg) {
	lo := sort.Search(len(m.Routes), func(j int) bool { return m.Routes[j].Start >= p.id })
	var hs []anr.Header
	for _, spec := range m.Routes[lo:] {
		if spec.Start != p.id {
			break
		}
		hs = append(hs, anr.CopyPath(spec.Links))
	}
	if len(hs) == 0 {
		return
	}
	if err := env.Multicast(hs, m); err != nil {
		panic(fmt.Sprintf("election: announce relay: %v", err))
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
	p.in = map[core.NodeID]bool{p.id: true}
	p.out = make(map[core.NodeID]bool)
	p.inout = newInOutTree(p.id)
	for _, port := range env.Ports() {
		if !port.Up {
			continue
		}
		p.out[port.Remote] = true
		if err := p.inout.attach(TreeEntry{
			Node:   port.Remote,
			Parent: p.id,
			Down:   port.Local,
			Up:     port.RemoteID,
		}); err != nil {
			panic(err)
		}
	}
	p.tour(env)
}

// tour starts the next capturing tour from home (the candidate must be
// active and at home).
func (p *Protocol) tour(env core.Env) {
	if len(p.out) == 0 {
		p.becomeLeader(env)
		return
	}
	o := p.pickOut()
	tok := tourToken{
		Cand:  p.id,
		Size:  len(p.in),
		Phase: phaseOf(len(p.in)),
		Hops:  1,
		O:     o,
	}
	p.onTour = true
	route, err := p.inout.route(o)
	if err != nil {
		// A degraded merge left o in OUT but not in the tree: flood the
		// entry; the accumulated flood route becomes the token's RetO.
		p.flood(env, o, &tourMsg{Tok: tok})
		return
	}
	if err := env.Send(route, &tourMsg{Tok: tok}); err != nil {
		panic(fmt.Sprintf("election: tour send: %v", err))
	}
}

// pickOut selects the smallest OUT node (deterministic).
func (p *Protocol) pickOut() core.NodeID {
	best := core.NodeID(-1)
	for x := range p.out {
		if best < 0 || x < best {
			best = x
		}
	}
	return best
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
			panic(fmt.Sprintf("election: chase send: %v", err))
		}
		return
	}
	// Rule (2): v is an origin.
	lv, li := p.Level(), tok.level()
	switch {
	case li.Less(lv): // 2.1
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
		if j.level().Less(tok.level()) {
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
		panic(fmt.Sprintf("election: node %d active at home met a token", p.id))
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

	data := &captureData{
		From: p.id,
		In:   setToSlice(p.in),
		Out:  setToSlice(p.out),
		Tree: p.inout.wire(),
		O:    tok.O,
	}
	m := &returnMsg{Cand: tok.Cand, Capture: data}
	if !ok {
		p.flood(env, tok.Cand, m)
		return
	}
	if err := env.Send(home, m); err != nil {
		panic(fmt.Sprintf("election: capture send: %v", err))
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
		panic(fmt.Sprintf("election: return send: %v", err))
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
	if toO, err := p.inout.route(tok.O); err == nil {
		return anr.Concat(toO, tok.RetO), true
	}
	if port, ok := env.PortToward(tok.Cand); ok && port.Up {
		p.stats.Recoveries.Add(1)
		return anr.Direct([]anr.ID{port.Local}), true
	}
	return nil, false
}

// onComeback processes the candidate's return and any waiter (rules 2.3/2.4
// completion), then continues touring if still active.
func (p *Protocol) onComeback(env core.Env, m *returnMsg) {
	if !p.isOrigin || !p.onTour {
		panic(fmt.Sprintf("election: unexpected comeback at %d", p.id))
	}
	p.onTour = false
	switch {
	case m.Retire:
		p.active = false
	case m.Capture != nil:
		p.merge(m.Capture)
	}
	// Resolve the parked waiter against the updated level.
	if p.waiting != nil {
		j := *p.waiting
		p.waiting = nil
		if p.Level().Less(j.level()) {
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

// merge folds a captured domain into this origin (rule 2.2's bookkeeping):
// IN ∪= IN_v, OUT = (OUT ∪ OUT_v) − IN, and the INOUT trees are combined by
// re-rooting the captured tree at the entry node o, which this tree already
// contains.
func (p *Protocol) merge(c *captureData) {
	vTree := newInOutTree(c.From)
	for _, e := range c.Tree {
		if err := vTree.attach(e); err != nil {
			panic(fmt.Sprintf("election: merge attach: %v", err))
		}
	}
	re, err := vTree.reroot(c.O)
	if err != nil || !p.inout.has(c.O) {
		// The captured node's shipped tree is stale: it was itself captured
		// through entry node c.O before its own merge of the sub-domain
		// containing c.O arrived (possible only under non-FIFO delivery).
		// Fold the IN/OUT sets and skip the tree graft — every downstream
		// route consumer (tour entries, returns, announcements) falls back
		// to the flood transport for the unreachable members.
		p.stats.Recoveries.Add(1)
		p.mergeSets(c)
		return
	}
	for _, e := range re.wire() {
		if p.inout.has(e.Node) {
			continue // keep the existing attachment
		}
		if err := p.inout.attach(e); err != nil {
			panic(fmt.Sprintf("election: merge graft: %v", err))
		}
	}
	p.mergeSets(c)
}

// mergeSets folds the captured IN/OUT sets: IN ∪= IN_v, OUT = (OUT ∪ OUT_v) − IN.
func (p *Protocol) mergeSets(c *captureData) {
	for _, x := range c.In {
		p.in[x] = true
		delete(p.out, x)
	}
	for _, x := range c.Out {
		if !p.in[x] {
			p.out[x] = true
		}
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
	if len(p.in) <= 1 {
		return
	}
	msg := &announceMsg{Leader: p.id, Routes: p.announceRoutes()}
	p.relayAnnounce(env, msg)
	// Degraded merges can leave domain members out of the INOUT tree, so the
	// branching paths miss them; they learn the result by flood (ascending
	// order for determinism).
	orphans := setToSlice(p.in)
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, x := range orphans {
		if x != p.id && !p.inout.has(x) {
			p.flood(env, x, msg)
		}
	}
}

// announceRoutes decomposes the INOUT tree into branching paths.
func (p *Protocol) announceRoutes() []announceSpec {
	max := p.id
	for x := range p.inout.entries {
		if x > max {
			max = x
		}
	}
	tree := &graph.Tree{
		Root:   p.id,
		Parent: make([]core.NodeID, int(max)+1),
		Depth:  make([]int, int(max)+1),
	}
	for i := range tree.Parent {
		tree.Parent[i] = core.None
		tree.Depth[i] = -1
	}
	tree.Depth[p.id] = 0
	// Entries are parent-before-child via wire(); fill depths accordingly.
	for _, e := range p.inout.wire() {
		tree.Parent[e.Node] = e.Parent
		tree.Depth[e.Node] = tree.Depth[e.Parent] + 1
	}
	labels := paths.Labels(tree)
	dec := paths.Decompose(tree, labels)
	// Ordered by Start (paths.Routes) so relayAnnounce can binary-search its
	// own paths. Every chain node is an INOUT entry, so no hop is unknown.
	specs := make([]announceSpec, 0, len(dec.Paths))
	_ = paths.Routes(dec, func(_, v core.NodeID) (anr.ID, bool) {
		return p.inout.entries[v].Down, true
	}, func(path paths.Path, links []anr.ID) {
		specs = append(specs, announceSpec{Start: path.Start(), Links: links})
	})
	return specs
}

// phaseOf is the paper's PH = floor(log2 size).
func phaseOf(size int) int {
	ph := 0
	for s := size; s > 1; s >>= 1 {
		ph++
	}
	return ph
}

func setToSlice(s map[core.NodeID]bool) []core.NodeID {
	out := make([]core.NodeID, 0, len(s))
	for x := range s {
		out = append(out, x)
	}
	return out
}
