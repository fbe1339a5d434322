package sim

import (
	"math/rand"
	randv2 "math/rand/v2"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/trace"
)

// hwSrc is the hardware-delay stream for hops leaving node v: v's own PCG in
// shard mode, the network-global source otherwise.
func (net *Network) hwSrc(v core.NodeID) *rand.Rand {
	if net.shardMode {
		net.pcg.PCG = &net.streams[v].hw
	}
	return net.rng
}

// faultSrc is the lossy-link roll stream for traversals leaving node v; v's
// own PCG in shard mode so fault draws stay on the owning shard.
func (net *Network) faultSrc(v core.NodeID) *rand.Rand {
	if !net.shardMode {
		return net.faultRng
	}
	net.pcg.PCG = &net.streams[v].flt
	return net.rng
}

// pcgSource is a shard-mode core's math/rand source: hwSrc and faultSrc point
// it at one node's 16-byte stream per draw. rand.Rand keeps no state between
// draws but Read's, which no caller uses, so repointing it is safe.
type pcgSource struct{ *randv2.PCG }

func (s *pcgSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *pcgSource) Seed(int64)   {}

// dupRev returns the reverse-path buffer a fault-injected duplicate should
// carry. Classic mode shares the original (idempotent rewrites); shard mode
// clones it into the hop arena at its exact length — the duplicate and the
// original may cross shard boundaries at different times, and sharing would
// make one shard re-write positions another is reading.
func (net *Network) dupRev(rev anr.Header) anr.Header {
	if !net.shardMode {
		return rev
	}
	return append(net.hops.carve(len(rev))[:0], rev...)
}

// hwDelayOnce draws one hardware delay for a hop leaving node from.
func (net *Network) hwDelayOnce(from core.NodeID) core.Time {
	c := net.cfg.hwDelay
	if !net.cfg.randomize || c <= 1 {
		return c
	}
	return 1 + core.Time(net.hwSrc(from).Int63n(int64(c)))
}

// route launches packet routing from node src at the current time, once
// core admits the send. Hops are stepped as individual events so that link
// failures affect packets in flight.
func (net *Network) route(src core.NodeID, h anr.Header, payload any, act int64) error {
	if err := net.pm.Admit(&net.metrics, src, h, net.cfg.dmax); err != nil {
		return err
	}
	msg := net.nextMsg(src)
	net.cfg.sink.Record(trace.Event{Kind: trace.KindSend, Time: int64(net.sp.now), Node: src, Act: act, Msg: msg})
	// One reverse-path buffer per packet, carved from this event core's hop
	// arena and filled back to front as the header is consumed: the reverse
	// route after hop i is revBuf[hops-1-i:], so every delivery's Reverse is
	// an independent tail of the same buffer and no per-hop allocation is
	// needed. The buffer — and so every tail — has cap == len, so a protocol
	// appending to a captured Reverse reallocates instead of stomping the
	// next packet's buffer; duplicate packets re-write the same positions
	// with the same route-determined values, which is idempotent.
	revBuf := net.hops.carve(h.HopCount() + 1)
	revBuf[len(revBuf)-1] = anr.Hop{Link: anr.NCU}
	net.stepHop(src, h, 0, revBuf, anr.NCU, payload, msg)
	return nil
}

// hopArena hands out reverse-route buffers from pointer-free chunks, so a
// packet launch allocates once per hopChunk hops instead of once per packet.
// Buffers are never recycled: a chunk is garbage once every buffer carved
// from it is, so a protocol retaining one Reverse pins at most hopChunk hops.
// Routes longer than hopChunk/8 get an allocation of their own, which bounds
// both that retention and the unused tail a chunk is abandoned with.
type hopArena struct{ free []anr.Hop }

const hopChunk = 512

func (a *hopArena) carve(n int) anr.Header {
	if n > hopChunk/8 {
		return make(anr.Header, n)
	}
	if len(a.free) < n {
		a.free = make([]anr.Hop, hopChunk)
	}
	buf := a.free[:n:n]
	a.free = a.free[n:]
	return buf
}

// stepHop consumes the header from position i at node cur, at the current
// time. The reverse route accumulated so far is revBuf[len(revBuf)-1-i:].
// What the switching subsystem does is core.StepHop, and what the link does
// to the packet MsgFaults.Cross; this is the loop that gives both a time.
//
// A hop that takes no time — C = 0 and no jitter pending, the paper's
// "hardware hops cost almost nothing" regime — is not an event: the walk
// continues inline, depth-first, inside this one call (cut-through). That is
// the model's semantics at C = 0, not an optimization of them; per-link fault
// rolls, hop metrics and traces are produced in traversal order. The
// scheduler is re-entered only at a time advance (C > 0 or jitter), a
// selective-copy or terminal NCU delivery, a fault or filter breaking the
// walk, or route end. reference_test.go walks the same way over a plain heap.
func (net *Network) stepHop(cur core.NodeID, h anr.Header, i int, revBuf anr.Header, arrivedOn anr.ID, payload any, msg int64) {
	for {
		rev := revBuf[len(revBuf)-1-i:]
		hop := core.StepHop(net.links[cur], h, i, cur, net.cfg.filter, payload)
		switch hop.Kind {
		case core.HopTerminal:
			if e := net.enqueueActivation(cur, msg, arrivedOn, anr.NCU, 0); e != nil {
				e.carry(payload, nil, rev)
			}
			return
		case core.HopFiltered:
			net.metrics.Filtered++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindDrop, Time: int64(net.sp.now), Node: cur, Msg: msg})
			return
		}
		port := hop.Port
		if hop.Copy {
			if e := net.enqueueActivation(cur, msg, arrivedOn, port.Local, flagCopy); e != nil {
				e.carry(payload, h[i+1:].Clone(), rev)
			}
		}
		if !port.Up {
			net.metrics.Drops++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindDrop, Time: int64(net.sp.now), Node: cur, Msg: msg})
			return
		}
		if net.linkTok != nil {
			// Per-link bandwidth: one token per traversal from the tail node's
			// bucket for this directed link, refilled lazily since its last
			// touch — O(1) admission, no refill events, and no rng draw (so
			// enabling capacity never perturbs the fault or delay streams).
			b := &net.linkTok[cur][int(port.Local)-1]
			if dt := net.sp.now - b.last; dt > 0 {
				b.tok += net.cfg.cap.LinkRate * float64(dt)
				if burst := net.cfg.cap.Burst(); b.tok > burst {
					b.tok = burst
				}
				b.last = net.sp.now
			}
			if b.tok < 1 {
				net.metrics.CapLinkDrops++
				net.cfg.sink.Record(trace.Event{Kind: trace.KindCapLinkDrop, Time: int64(net.sp.now), Node: cur, Msg: msg})
				return
			}
			b.tok--
		}
		// Lossy-link model: one Cross per live-link traversal. A delay fault
		// holds the packet back (a slowed hop by >= 1, so it always leaves
		// the instant), letting later traffic overtake it; a duplicate
		// crosses the link a second time, below.
		var f core.MsgFault
		var extraDelay core.Time
		if net.cfg.faults.Enabled() {
			f, payload, extraDelay = net.cfg.faults.Cross(net.faultSrc(cur), net.cfg.hwDelay, payload)
			f.Count(&net.metrics, net.cfg.sink, int64(net.sp.now), cur, msg)
			if f == core.FaultDrop {
				return
			}
		}
		net.metrics.Hops++
		revBuf[len(revBuf)-2-i] = anr.Hop{Link: port.RemoteID}
		at := net.sp.now + net.hwDelayOnce(cur) + extraDelay
		if at > net.sp.now {
			net.pushHop(at, port.Remote, h, i+1, revBuf, port.RemoteID, payload, msg)
		}
		if f == core.FaultDup {
			// A duplicate re-crosses the link after a jitter delay >= 1, so it
			// always leaves the instant and goes through the scheduler.
			net.metrics.Hops++
			dupAt := net.sp.now + net.hwDelayOnce(cur) + net.cfg.faults.JitterDelay(net.faultSrc(cur))
			net.pushHop(dupAt, port.Remote, h, i+1, net.dupRev(revBuf), port.RemoteID, payload, msg)
		}
		if at > net.sp.now {
			return
		}
		// Zero-delay hop: the packet is at the next subsystem already (at ==
		// now implies hwDelayOnce drew nothing: C <= 1 never draws).
		net.sp.stats.FusedHops++
		cur, i, arrivedOn = port.Remote, i+1, port.RemoteID
	}
}

func (net *Network) pushHop(at core.Time, node core.NodeID, h anr.Header, i int, revBuf anr.Header, arrivedOn anr.ID, payload any, msg int64) {
	var e *eventRec
	if net.assign != nil && net.assign[node] != net.shardID {
		// Boundary hop: the key is drawn here, at creation, from the origin
		// node's canonical counter — the same position in the counter stream
		// a single-shard run would draw it — and the event waits in the
		// outbox until the window barrier hands it to the owning shard. Its
		// arrival time is at least now + lookahead, so it lands strictly
		// after the current window.
		box := &net.outbox[net.assign[node]]
		*box = append(*box, timedEvent{t: at, ev: eventRec{seq: net.nextKey()}})
		e = &(*box)[len(*box)-1].ev
	} else {
		e = net.sp.schedule(at, net.nextKey())
	}
	e.set(evHop, node, msg, int32(i), arrivedOn, 0, 0)
	e.carry(payload, h, revBuf)
}
