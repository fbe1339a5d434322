package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// Reference is a naive engine of the classic stream contract, built from a
// Network's option list and sharing nothing else with it: one binary heap of
// closures keyed (t, seq), a fresh reverse route copied at every hop. It draws
// from the same rng streams at the same points and labels activations and
// messages the same way, so its trace, metrics and per-node vectors must equal
// production's. Zero-delay hops recurse inline: the model's semantics at C = 0.
// It runs the whole driver surface a scenario scripts (RunUntil, StallNode,
// SetMsgFaults, crashes) and refuses WithShards and WithCapacity.
type Reference struct {
	g             *graph.Graph
	pm            *core.PortMap
	cfg           config
	q             refQueue
	seq           uint64
	now           core.Time
	nodes         []*refNode
	down          map[graph.Edge]bool
	rng, faultRng *rand.Rand
	m             core.Metrics
	perNode       []int64
	busy          []core.Time
	acts, msgs    int64 // labels handed out
	pops, inline  int64 // heap pops; zero-delay hops walked without one
	failed        *core.HandlerError
}

type refEvent struct {
	t   core.Time
	seq uint64 // push order: ties at one instant run first come, first served
	run func()
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].t < q[j].t || q[i].t == q[j].t && q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	e := (*q)[len(*q)-1]
	*q = (*q)[:len(*q)-1]
	return e
}

// refNode is one node and the core.Env its protocol sees.
type refNode struct {
	r         *Reference
	id        core.NodeID
	proto     core.Protocol
	rng       *rand.Rand
	ports     []core.Port
	busyUntil core.Time
	act       int64
	stallEnd  core.Time // StallNode's window: an activation before stallEnd
	stall     core.Time // pays stall more
}

// NewReference takes a Network's options and refuses what it does not implement.
func NewReference(g *graph.Graph, f core.Factory, opts ...Option) *Reference {
	cfg := config{swDelay: 1, seed: 1, sink: trace.Discard{}, eventBudget: 50_000_000}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards != 0 || cfg.cap.Enabled() {
		panic("sim: the reference engine implements neither WithShards nor WithCapacity")
	}
	r := &Reference{
		g: g, pm: core.NewPortMap(g), cfg: cfg, down: map[graph.Edge]bool{},
		rng:      rand.New(rand.NewSource(cfg.seed)),
		faultRng: rand.New(rand.NewSource(cfg.seed ^ 0x10551e5)),
		perNode:  make([]int64, g.N()), busy: make([]core.Time, g.N()),
	}
	for u := 0; u < g.N(); u++ {
		id := core.NodeID(u)
		r.nodes = append(r.nodes, &refNode{r: r, id: id, proto: f(id),
			rng:   rand.New(rand.NewSource(cfg.seed + int64(u) + 1)),
			ports: append([]core.Port(nil), r.pm.Ports(id)...)})
	}
	for _, nd := range r.nodes {
		nd.proto.Init(nd)
	}
	return r
}

func (r *Reference) Graph() *graph.Graph                  { return r.g }
func (r *Reference) PortMap() *core.PortMap               { return r.pm }
func (r *Reference) Now() core.Time                       { return r.now }
func (r *Reference) Protocol(u core.NodeID) core.Protocol { return r.nodes[u].proto }
func (r *Reference) Metrics() core.Metrics                { return r.m }
func (r *Reference) DeliveriesPerNode() []int64           { return r.perNode }
func (r *Reference) BusyTimePerNode() []core.Time         { return r.busy }

func (r *Reference) Inject(t core.Time, v core.NodeID, p any) {
	pkt := core.Packet{Payload: p, Reverse: anr.Local(), Injected: true}
	r.at(t, func() { r.activate(v, trace.KindInject, 0, pkt) })
}

// SchedStats counts each heap pop as an event and each zero-delay hop as a
// fused one: production's events and cut-through hops, one for one.
func (r *Reference) SchedStats() SchedStats { return SchedStats{Events: r.pops, FusedHops: r.inline} }

func (r *Reference) LinkUp(u, v core.NodeID) bool         { return !r.down[graph.Edge{U: u, V: v}.Canon()] }
func (r *Reference) InjectLink(u, v core.NodeID, up bool) { r.SetLink(r.now, u, v, up) }
func (r *Reference) SetMsgFaults(f core.MsgFaults)        { r.cfg.faults = f }

// CrashNode and RestoreNode flip every link of v at t, in neighbor order.
func (r *Reference) CrashNode(t core.Time, v core.NodeID)   { r.flipAll(t, v, false) }
func (r *Reference) RestoreNode(t core.Time, v core.NodeID) { r.flipAll(t, v, true) }

func (r *Reference) flipAll(t core.Time, v core.NodeID, up bool) {
	for _, nb := range r.g.Neighbors(v) {
		r.SetLink(t, v, nb, up)
	}
}

// StallNode makes every activation at v in the next window instants pay
// extra (at least 1) more software delay.
func (r *Reference) StallNode(v core.NodeID, window, extra core.Time) {
	r.nodes[v].stallEnd, r.nodes[v].stall = r.now+window, max(extra, 1)
}

func (r *Reference) SetLink(t core.Time, u, v core.NodeID, up bool) {
	r.at(t, func() {
		r.down[graph.Edge{U: u, V: v}.Canon()] = !up
		for _, end := range [2][2]core.NodeID{{u, v}, {v, u}} {
			nd := r.nodes[end[0]]
			lid, _ := r.pm.Toward(end[0], end[1])
			nd.ports[lid-1].Up = up
			port := nd.ports[lid-1]
			r.ncu(nd, trace.KindLinkEvent, 0, func() {
				r.m.LinkEvents++
				nd.proto.LinkEvent(nd, port)
			})
		}
	})
}

func (r *Reference) Run() (core.Time, error) { return r.RunUntil(noDeadline) }

// RunUntil dispatches the events at or before deadline; the clock then reads
// the deadline if any remain. A failed network dispatches nothing more, and a
// deadline behind the clock is refused with ErrBackward.
func (r *Reference) RunUntil(deadline core.Time) (core.Time, error) {
	if r.failed != nil {
		return r.m.FinishTime, r.failed
	}
	if deadline < r.now {
		return r.m.FinishTime, fmt.Errorf("%w: RunUntil(%d) with the clock at %d", ErrBackward, deadline, r.now)
	}
	for r.q.Len() > 0 {
		if r.q[0].t > deadline {
			r.now = deadline
			break
		}
		e := heap.Pop(&r.q).(refEvent)
		r.now = e.t
		if r.pops++; r.pops > r.cfg.eventBudget {
			return r.m.FinishTime, fmt.Errorf("%w (%d events)", ErrEventBudget, r.pops)
		}
		if e.run(); r.failed != nil {
			return r.m.FinishTime, r.failed
		}
	}
	return r.m.FinishTime, nil
}

func (r *Reference) at(t core.Time, run func()) {
	r.seq++
	heap.Push(&r.q, refEvent{max(t, r.now), r.seq, run})
}

func (r *Reference) rec(kind trace.Kind, node core.NodeID, act, msg int64, cause string) {
	r.cfg.sink.Record(trace.Event{Kind: kind, Time: int64(r.now), Node: node, Act: act, Msg: msg, Cause: cause})
}

// ncu reserves nd's NCU for one software delay behind its backlog; when that
// has passed, call runs as one activation: labelled, traced, timed.
func (r *Reference) ncu(nd *refNode, kind trace.Kind, msg int64, call func()) {
	p := r.delay(r.cfg.swDelay, nd.rng)
	if r.now < nd.stallEnd {
		p += nd.stall
		r.m.StallTicks += int64(nd.stall)
	}
	nd.busyUntil = max(r.now, nd.busyUntil) + p
	r.busy[nd.id] += p
	r.at(nd.busyUntil, func() {
		r.acts++
		nd.act = r.acts
		r.m.FinishTime = max(r.m.FinishTime, r.now)
		r.rec(kind, nd.id, nd.act, msg, "")
		call()
		nd.act = 0
	})
}

// activate hands one packet to v's NCU: one system call.
func (r *Reference) activate(v core.NodeID, kind trace.Kind, msg int64, pkt core.Packet) {
	r.ncu(r.nodes[v], kind, msg, func() {
		if pkt.Injected {
			r.m.Injections++
		} else {
			r.m.Deliveries++
			r.perNode[v]++
			if pkt.ForwardedOn != anr.NCU {
				r.m.CopyDeliveries++
			}
		}
		r.nodes[v].proto.Deliver(r.nodes[v], pkt)
	})
}

// walk consumes h from position i at node cur; rev is the way back from here.
func (r *Reference) walk(cur core.NodeID, h anr.Header, i int, rev anr.Header, arrivedOn anr.ID, payload any, msg int64) {
	hop := h[i]
	if hop.Link == anr.NCU {
		r.activate(cur, trace.KindDeliver, msg, core.Packet{Payload: payload, Reverse: rev, ArrivedOn: arrivedOn})
		return
	}
	port, err := r.pm.Resolve(cur, hop.Link)
	if err != nil {
		r.m.Drops++
		return
	}
	if i > 0 && r.cfg.filter != nil && !r.cfg.filter(cur, payload) {
		r.m.Filtered++
		r.rec(trace.KindDrop, cur, 0, msg, "")
		return
	}
	if hop.Copy {
		r.activate(cur, trace.KindDeliver, msg, core.Packet{Payload: payload, Remaining: h[i+1:].Clone(), Reverse: rev,
			ArrivedOn: arrivedOn, ForwardedOn: hop.Link})
	}
	if r.down[graph.Edge{U: cur, V: port.Remote}.Canon()] {
		r.m.Drops++
		r.rec(trace.KindDrop, cur, 0, msg, "")
		return
	}
	f, extra := r.cfg.faults, core.Time(0)
	fault := f.Roll(r.faultRng) // draws nothing when no fault is enabled
	note := func(n *int64, k trace.Kind) {
		*n++
		r.rec(k, cur, 0, msg, fault.String())
	}
	switch fault {
	case core.FaultDrop:
		note(&r.m.FaultDrops, trace.KindFaultDrop)
		return
	case core.FaultDup:
		note(&r.m.FaultDups, trace.KindFaultDup)
	case core.FaultCorrupt:
		note(&r.m.FaultCorrupts, trace.KindFaultCorrupt)
		payload = core.CorruptPayload(payload, r.faultRng)
	case core.FaultJitter:
		note(&r.m.FaultJitters, trace.KindFaultJitter)
		extra = f.JitterDelay(r.faultRng)
	case core.FaultReorder:
		note(&r.m.FaultReorders, trace.KindFaultReorder)
		extra = f.ReorderDelay(r.faultRng)
	case core.FaultSlowdown:
		note(&r.m.FaultSlowdowns, trace.KindFaultSlow)
		extra = f.SlowdownDelay(r.faultRng, r.cfg.hwDelay)
	}
	r.m.Hops++
	rev = append(anr.Header{{Link: port.RemoteID}}, rev...)
	arrive := func() { r.walk(port.Remote, h, i+1, rev, port.RemoteID, payload, msg) }
	at := r.now + r.delay(r.cfg.hwDelay, r.rng) + extra
	if at > r.now {
		r.at(at, arrive)
	}
	if fault == core.FaultDup { // the copy re-crosses the link a jitter delay later
		r.m.Hops++
		r.at(r.now+r.delay(r.cfg.hwDelay, r.rng)+f.JitterDelay(r.faultRng), arrive)
	}
	if at == r.now {
		r.inline++
		arrive()
	}
}

// delay is the bound itself or, randomized, one draw from [1, bound].
func (r *Reference) delay(bound core.Time, rng *rand.Rand) core.Time {
	if r.cfg.randomize && bound > 1 {
		return 1 + core.Time(rng.Int63n(int64(bound)))
	}
	return bound
}

func (nd *refNode) ID() core.NodeID    { return nd.id }
func (nd *refNode) Ports() []core.Port { return nd.ports }
func (nd *refNode) Now() core.Time     { return nd.r.now }
func (nd *refNode) Rand() *rand.Rand   { return nd.rng }

func (nd *refNode) Fail(err error) {
	if nd.r.failed == nil {
		nd.r.failed = &core.HandlerError{Node: nd.id, Time: nd.r.now, Cause: err}
	}
}

func (nd *refNode) PortToward(nb core.NodeID) (core.Port, bool) {
	if lid, ok := nd.r.pm.Toward(nd.id, nb); ok {
		return nd.ports[lid-1], true
	}
	return core.Port{}, false
}

func (nd *refNode) Send(h anr.Header, payload any) error { return nd.send([]anr.Header{h}, payload) }

func (nd *refNode) Multicast(hs []anr.Header, payload any) error {
	first := map[anr.ID]bool{} // the §2 rule, the naive way: routes start on distinct links
	for _, h := range hs {
		if err := h.Validate(); err != nil {
			return err
		}
		if first[h[0].Link] {
			return core.ErrMulticastLinks
		}
		first[h[0].Link] = true
	}
	return nd.send(hs, payload)
}

func (nd *refNode) send(hs []anr.Header, payload any) error {
	r := nd.r
	r.m.Sends++
	for _, h := range hs {
		if err := h.Validate(); err != nil {
			return err
		}
		if err := h.CheckDmax(r.cfg.dmax); err != nil {
			r.m.DmaxViolations++
			return err
		}
		for cur, i := nd.id, 0; h[i].Link != anr.NCU; i++ {
			port, err := r.pm.Resolve(cur, h[i].Link)
			if err != nil {
				return err
			}
			cur = port.Remote
		}
		r.msgs++
		hops := int64(h.HopCount())
		r.m.Packets++
		r.m.HeaderBits += (hops + 1) * int64(r.pm.IDWidth()+1)
		r.m.MaxHeaderHops = max(r.m.MaxHeaderHops, hops)
		r.rec(trace.KindSend, nd.id, nd.act, r.msgs, "")
		r.walk(nd.id, h, 0, anr.Header{{Link: anr.NCU}}, anr.NCU, payload, r.msgs)
	}
	return nil
}
