package sim

import (
	"math/rand"
	randv2 "math/rand/v2"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/trace"
)

type node struct {
	id        core.NodeID
	proto     core.Protocol
	rng       *rand.Rand // created on first draw; see node.random
	busyUntil core.Time
	// NCU-stall window (gray failure): while now < stallUntil every
	// activation's software delay is inflated by stallExtra.
	stallUntil core.Time
	stallExtra core.Time
	env        env
}

// nodeStreams is a node's shard-mode state: its hardware-delay and fault-roll
// streams and its canonical event-key / activation / message counters, so a
// run's draws and labels are a pure function of (seed, node), independent of
// how nodes interleave across shards. One slice, made by buildShards and
// shared by the child shards like nodes; a row is touched only by its owner.
type nodeStreams struct {
	hw, flt        randv2.PCG
	keyCtr         uint64
	actCtr, msgCtr int64
}

// random returns the node's deterministic source, creating it on first use:
// the seed is a pure function of (network seed, node id), so laziness only
// skips the allocation in runs that never draw (exact delays, rng-free
// protocols) without changing any draw sequence.
func (nd *node) random(net *Network) *rand.Rand {
	if nd.rng == nil {
		nd.rng = rand.New(rand.NewSource(net.cfg.seed + int64(nd.id) + 1))
	}
	return nd.rng
}

type env struct {
	net *Network
	nd  *node
	act int64 // current activation ordinal (0 outside activations)
}

var _ core.Env = (*env)(nil)

// localRev is the Reverse of every injected activation: the one-hop "deliver
// to my own NCU" route, shared and never written (cap == len, so an append
// copies it like any other Reverse).
var localRev = anr.Local()

// dispatch runs one event. ev is read in place and stays valid throughout:
// the run loop drops it only after dispatch returns.
func (net *Network) dispatch(ev *eventRec) {
	switch ev.kind {
	case evHop:
		net.curOrigin = int32(ev.node)
		net.stepHop(ev.node, ev.header(), int(ev.hopIdx), ev.reverse(), ev.arrivedOn, ev.payload, ev.msg)
	case evActivation:
		nodeID, msg := ev.node, ev.msg
		net.curOrigin = int32(nodeID)
		if net.pendAct != nil && net.pendAct[nodeID] > 0 {
			net.pendAct[nodeID]--
		}
		nd := &net.nodes[nodeID]
		act := net.nextAct(nd)
		nd.env.act = act
		injected := ev.flags&flagInjected != 0
		if injected {
			net.metrics.Injections++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindInject, Time: int64(net.sp.now), Node: nodeID, Act: act, Msg: msg})
		} else {
			net.metrics.Deliveries++
			net.perNode[nodeID]++
			if ev.flags&flagCopy != 0 {
				net.metrics.CopyDeliveries++
			}
			net.cfg.sink.Record(trace.Event{Kind: trace.KindDeliver, Time: int64(net.sp.now), Node: nodeID, Act: act, Msg: msg})
		}
		if net.sp.now > net.metrics.FinishTime {
			net.metrics.FinishTime = net.sp.now
		}
		nd.proto.Deliver(&nd.env, core.Packet{
			Payload:     ev.payload,
			Remaining:   ev.header(),
			Reverse:     ev.reverse(),
			ArrivedOn:   ev.arrivedOn,
			ForwardedOn: ev.forwardedOn,
			Injected:    injected,
		})
		nd.env.act = 0
	case evLinkEvent:
		nodeID := ev.node
		net.curOrigin = int32(nodeID)
		nd := &net.nodes[nodeID]
		act := net.nextAct(nd)
		nd.env.act = act
		net.metrics.LinkEvents++
		if net.sp.now > net.metrics.FinishTime {
			net.metrics.FinishTime = net.sp.now
		}
		net.cfg.sink.Record(trace.Event{Kind: trace.KindLinkEvent, Time: int64(net.sp.now), Node: nodeID, Act: act})
		nd.proto.LinkEvent(&nd.env, ev.port())
		nd.env.act = 0
	case evInject:
		net.curOrigin = int32(ev.node)
		if e := net.enqueueActivation(ev.node, 0, anr.NCU, anr.NCU, flagInjected); e != nil {
			e.carry(ev.payload, nil, localRev)
		}
	case evLinkFlip:
		u, v, up := ev.node, core.NodeID(ev.hopIdx), ev.flags&flagUp != 0
		for _, end := range [2][2]core.NodeID{{u, v}, {v, u}} {
			// On a sharded network a cut edge's flip record reaches both
			// shards; each flips and notifies only the endpoint it owns.
			if net.ownsNode(end[0]) {
				net.curOrigin = int32(end[0])
				net.enqueueLinkEvent(end[0], net.links.Flip(end[0], end[1], up))
			}
		}
	}
}

const originShift = 40 // a shard-mode key's origin field lies above bit 40 (nextKey)

// nextKey assigns the scheduler key of a new event. Classic mode: the global
// push sequence. Shard mode: a canonical key — driver-scripted events take a
// shared ordinal (< 2^40, sorting before every node key at the same instant);
// node-created events take ((node+1) << 40) | perNodeCounter, a pure function
// of the creating node's dispatch history. Two shard-mode runs of the same
// scenario assign identical keys to identical events regardless of the shard
// count, which is what makes (t, key) dispatch order — and with it every
// observable — shard-count-invariant.
//
// One origin's events also reach any one spine in counter order, which the
// stage relies on: local pushes follow the origin's dispatch order; a boundary
// event draws its key here and waits in its shard's outbox in push order, the
// barrier drains each outbox in order, and an origin lives in one shard;
// script keys follow the driver's call order. grow moves slots whole, so it
// does not break it.
func (net *Network) nextKey() uint64 {
	if !net.shardMode {
		net.seq++
		return net.seq
	}
	if net.curOrigin < 0 {
		*net.scriptCtr = *net.scriptCtr + 1
		return *net.scriptCtr
	}
	st := &net.streams[net.curOrigin]
	st.keyCtr++
	return (uint64(net.curOrigin)+1)<<originShift | st.keyCtr
}

// nextAct assigns an activation label. Classic mode: the global activation
// sequence. Shard mode: ((node+1) << 36) | perNodeCounter, so labels are
// shard-count-invariant (trace projections compare them).
func (net *Network) nextAct(nd *node) int64 {
	if net.shardMode {
		st := &net.streams[nd.id]
		st.actCtr++
		return (int64(nd.id)+1)<<36 | st.actCtr
	}
	net.actSeq++
	return net.actSeq
}

// nextMsg assigns a message label for a packet sent by src; same scheme as
// nextAct.
func (net *Network) nextMsg(src core.NodeID) int64 {
	if net.shardMode {
		st := &net.streams[src]
		st.msgCtr++
		return (int64(src)+1)<<36 | st.msgCtr
	}
	net.msgSeq++
	return net.msgSeq
}

// enqueueActivation reserves the node's NCU for one software delay starting
// no earlier than now and schedules the Deliver callback at completion time.
// With a finite NCU service queue configured (Capacity.NCUQueue) an arrival
// that finds the backlog at the cap is dropped at the NCU boundary instead;
// link events stay uncapped — they are the hardware's control-plane
// notifications, not queued user work.
//
// It returns the activation's event for the caller to attach the packet's
// references to through carry, or nil when the packet was dropped.
func (net *Network) enqueueActivation(v core.NodeID, msg int64, arrivedOn, forwardedOn anr.ID, flags uint8) *eventRec {
	nd := &net.nodes[v]
	start := net.sp.now
	if nd.busyUntil > start {
		start = nd.busyUntil
	}
	if net.pendAct != nil {
		if int(net.pendAct[v]) >= net.cfg.cap.NCUQueue {
			net.metrics.CapQueueDrops++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindCapQueueDrop, Time: int64(net.sp.now), Node: v, Msg: msg})
			return nil
		}
		net.pendAct[v]++
	}
	if net.cfg.cap.Enabled() {
		// Queueing delay: how long this activation waits behind the node's
		// backlog before its own software delay starts. Accounted only under
		// a capacity model so capacity-free metrics strings are unchanged.
		net.metrics.QueueTicks += int64(start - net.sp.now)
	}
	dur := net.swDelayFor(nd)
	done := start + dur
	nd.busyUntil = done
	net.busy[v] += dur
	e := net.sp.schedule(done, net.nextKey())
	e.set(evActivation, v, msg, 0, arrivedOn, forwardedOn, flags)
	return e
}

func (net *Network) enqueueLinkEvent(v core.NodeID, port core.Port) {
	nd := &net.nodes[v]
	start := net.sp.now
	if nd.busyUntil > start {
		start = nd.busyUntil
	}
	dur := net.swDelayFor(nd)
	done := start + dur
	nd.busyUntil = done
	net.busy[v] += dur
	var flags uint8
	if port.Up {
		flags = flagUp
	}
	net.sp.schedule(done, net.nextKey()).set(evLinkEvent, v, 0, int32(port.Remote), port.Local, port.RemoteID, flags)
}

func (net *Network) swDelayFor(nd *node) core.Time {
	p := net.cfg.swDelay
	if net.cfg.randomize && p > 1 {
		p = 1 + core.Time(nd.random(net).Int63n(int64(p)))
	}
	// A stalled NCU (GC-pause-style gray failure) pays extra software delay
	// for every activation inside the window; the surcharge is accounted so
	// soaks can report how much slowness was injected.
	if net.sp.now < nd.stallUntil && nd.stallExtra > 0 {
		p += nd.stallExtra
		net.metrics.StallTicks += int64(nd.stallExtra)
	}
	return p
}

// --- env: the core.Env implementation handed to protocols ---

func (e *env) ID() core.NodeID { return e.nd.id }

func (e *env) Ports() []core.Port { return e.net.links[e.nd.id] }

func (e *env) PortToward(nb core.NodeID) (core.Port, bool) {
	return e.net.links.Toward(e.nd.id, nb)
}

func (e *env) Send(h anr.Header, payload any) error {
	e.net.metrics.Sends++
	return e.net.route(e.nd.id, h, payload, e.act)
}

func (e *env) Multicast(hs []anr.Header, payload any) error {
	return core.Multicast(&e.net.metrics, hs, func(h anr.Header) error {
		return e.net.route(e.nd.id, h, payload, e.act)
	})
}

func (e *env) Now() core.Time { return e.net.sp.now }

func (e *env) Rand() *rand.Rand { return e.nd.random(e.net) }

func (e *env) Fail(err error) {
	if e.net.failed == nil {
		e.net.failed = &core.HandlerError{Node: e.nd.id, Time: e.net.sp.now, Cause: err}
	}
}
