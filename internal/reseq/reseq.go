// Package reseq restores per-link FIFO delivery in software. The paper's §5
// pipelined protocols are the only ones that assume FIFO links; the runtimes
// do not guarantee it (randomized hardware delays and the reorder fault in
// core.MsgFaults both let later packets overtake earlier ones on the same
// link). A protocol that declares the core.FIFORequirer capability can be
// wrapped in a resequencing Node: every single-hop unicast send is stamped
// with a per-(link,direction) sequence number, and the receiving side holds
// out-of-order frames in a bounded buffer until the gap fills, releasing the
// stream to the inner protocol in send order.
//
// The sublayer is the channel-order sibling of internal/reliable's ARQ: it
// assumes frames eventually arrive (reordering, not loss) and buys back
// ordering, where reliable assumes order is irrelevant and buys back
// delivery. Under loss or corruption a missing sequence number would stall
// the stream forever, so the buffer has two release valves: overflow (more
// than Window frames held) and age (frames held longer than HoldTicks Tick
// injections). Both give up on the gap and release in seq order — FIFO
// degrades instead of deadlocking, and the Forced counter makes the
// degradation visible.
//
// Scope: only single-hop unicast sends are stamped — neighbor streams, which
// is exactly the traffic shape of the §5 gather/dissemination trees.
// Multi-hop routes and multicasts pass through unstamped (their per-link
// interleavings are not a FIFO stream to begin with); mixing unstamped and
// stamped traffic on one link forfeits ordering between the two classes but
// never blocks either.
package reseq

import (
	"fmt"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// Frame is the wire envelope of one stamped send: the receiver's switching
// subsystem sees an opaque payload, the receiver's resequencer consumes Seq
// and hands Payload to the inner protocol in order. Seq is per
// (sender, outgoing link) starting at 1.
type Frame struct {
	Seq     uint64
	Payload any
}

// Tick is the resequencer's timeout clock: the driver (or host protocol)
// injects it periodically, and frames buffered for more than HoldTicks ticks
// are force-released. Without ticks only the overflow valve fires.
type Tick struct{}

// Config shapes the resequencing buffer.
type Config struct {
	// Window is the per-link bound on buffered out-of-order frames; holding
	// one more forces a release. 0 means defaultWindow.
	Window int
	// HoldTicks force-releases frames buffered for more than this many Tick
	// injections. 0 disables the age valve (overflow still applies).
	HoldTicks int64
}

// defaultWindow is the per-link buffer bound when Config.Window is 0.
const defaultWindow = 32

func (c Config) window() int {
	if c.Window <= 0 {
		return defaultWindow
	}
	return c.Window
}

// Stats counts the resequencer's work. All counters are per wrapped node.
type Stats struct {
	// Stamped counts sends wrapped in a Frame.
	Stamped int64
	// Passthrough counts deliveries handed to the inner protocol unshimmed
	// (non-frame payloads: injected starts, multi-hop traffic, multicast).
	Passthrough int64
	// InOrder counts frames that arrived already in order.
	InOrder int64
	// Buffered counts frames that arrived early and were held.
	Buffered int64
	// Released counts held frames delivered after their gap filled — each
	// one is a FIFO violation the sublayer repaired.
	Released int64
	// Forced counts gaps abandoned by the overflow/age valves; the frames
	// released behind a forced gap kept seq order but lost stream
	// continuity.
	Forced int64
	// Stale counts frames below the expected sequence number (late arrivals
	// behind an abandoned gap, or duplicates) that were discarded.
	Stale int64
}

type held struct {
	pkt core.Packet
	age int64 // tick count at buffering time
}

type linkState struct {
	next uint64 // next sequence number owed to the inner protocol
	buf  map[uint64]held
}

// Node wraps an inner protocol with the resequencing sublayer. It is itself
// a core.Protocol, so wrapped and unwrapped instances are interchangeable to
// the runtimes.
type Node struct {
	inner core.Protocol
	cfg   Config
	// sendSeq is the next stamp per outgoing local link.
	sendSeq map[anr.ID]uint64
	// recv is the reorder buffer per arrival link. Per-link state keyed by
	// the local arrival ID is per-(link,direction) state: the opposite
	// direction of the same physical link lives at the other endpoint.
	recv  map[anr.ID]*linkState
	ticks int64
	stats Stats
}

// Wrap builds the resequencing node around inner.
func Wrap(inner core.Protocol, cfg Config) *Node {
	return &Node{
		inner:   inner,
		cfg:     cfg,
		sendSeq: make(map[anr.ID]uint64),
		recv:    make(map[anr.ID]*linkState),
	}
}

// WrapFactory shims a factory: protocols declaring the core.FIFORequirer
// capability come out wrapped, everything else is returned untouched.
func WrapFactory(f core.Factory, cfg Config) core.Factory {
	return func(id core.NodeID) core.Protocol {
		p := f(id)
		if core.RequiresFIFO(p) {
			return Wrap(p, cfg)
		}
		return p
	}
}

// Stats returns a snapshot of the resequencer's counters.
func (n *Node) Stats() Stats { return n.stats }

// Init implements core.Protocol.
func (n *Node) Init(env core.Env) { n.inner.Init(&fifoEnv{Env: env, nd: n}) }

// LinkEvent implements core.Protocol.
func (n *Node) LinkEvent(env core.Env, port core.Port) {
	n.inner.LinkEvent(&fifoEnv{Env: env, nd: n}, port)
}

// Deliver implements core.Protocol: frames are resequenced per arrival link,
// ticks advance the age valve, everything else passes straight through.
func (n *Node) Deliver(env core.Env, pkt core.Packet) {
	renv := &fifoEnv{Env: env, nd: n}
	switch m := pkt.Payload.(type) {
	case Tick:
		n.tick(renv)
	case *Frame:
		n.onFrame(renv, pkt, m)
	default:
		n.stats.Passthrough++
		n.inner.Deliver(renv, pkt)
	}
}

func (n *Node) onFrame(renv *fifoEnv, pkt core.Packet, f *Frame) {
	st := n.recv[pkt.ArrivedOn]
	if st == nil {
		st = &linkState{next: 1, buf: make(map[uint64]held)}
		n.recv[pkt.ArrivedOn] = st
	}
	switch {
	case f.Seq < st.next:
		n.stats.Stale++
	case f.Seq == st.next:
		n.stats.InOrder++
		n.release(renv, pkt, f)
		st.next++
		n.drain(renv, st, false)
	default:
		// Early frame: keep the whole packet (the inner protocol may need
		// Reverse/ArrivedOn) until the gap fills.
		st.buf[f.Seq] = held{pkt: pkt, age: n.ticks}
		n.stats.Buffered++
		if len(st.buf) > n.cfg.window() {
			n.forceRelease(renv, st)
		}
	}
}

// release hands one resequenced packet to the inner protocol with the frame
// envelope stripped.
func (n *Node) release(renv *fifoEnv, pkt core.Packet, f *Frame) {
	pkt.Payload = f.Payload
	n.inner.Deliver(renv, pkt)
}

// drain delivers the contiguous run now available at st.next.
func (n *Node) drain(renv *fifoEnv, st *linkState, forced bool) {
	for {
		h, ok := st.buf[st.next]
		if !ok {
			return
		}
		delete(st.buf, st.next)
		f := h.pkt.Payload.(*Frame)
		if !forced {
			n.stats.Released++
		}
		n.release(renv, h.pkt, f)
		st.next++
	}
}

// forceRelease abandons the gap below the smallest buffered frame and drains
// from there: liveness over ordering. A late frame for the abandoned gap
// will arrive below next and be counted Stale.
func (n *Node) forceRelease(renv *fifoEnv, st *linkState) {
	var lo uint64
	for seq := range st.buf {
		if lo == 0 || seq < lo {
			lo = seq
		}
	}
	if lo == 0 {
		return
	}
	n.stats.Forced++
	st.next = lo
	n.drain(renv, st, true)
}

// tick advances the age clock and fires the age valve on every link holding
// frames older than HoldTicks. Links are visited in ascending ID order so
// discrete-event runs stay deterministic.
func (n *Node) tick(renv *fifoEnv) {
	n.ticks++
	if n.cfg.HoldTicks <= 0 {
		return
	}
	var links []anr.ID
	for l, st := range n.recv {
		if len(st.buf) > 0 {
			links = append(links, l)
		}
	}
	for i := 1; i < len(links); i++ {
		for j := i; j > 0 && links[j] < links[j-1]; j-- {
			links[j], links[j-1] = links[j-1], links[j]
		}
	}
	for _, l := range links {
		st := n.recv[l]
		for expired := true; expired && len(st.buf) > 0; {
			expired = false
			for _, h := range st.buf {
				if n.ticks-h.age > n.cfg.HoldTicks {
					expired = true
					break
				}
			}
			if expired {
				n.forceRelease(renv, st)
			}
		}
	}
}

// fifoEnv is the Env handed to the inner protocol: sends that form a
// neighbor stream (single-hop unicast) are stamped, everything else passes
// through. The stamp happens at send time, so the sequence numbers follow
// the inner protocol's send order exactly — which is the order the far-end
// resequencer restores.
type fifoEnv struct {
	core.Env
	nd *Node
}

// Send implements core.Env.
func (e *fifoEnv) Send(h anr.Header, payload any) error {
	if len(h) == 2 && h[0].Link != anr.NCU && !h[0].Copy && h[1].Link == anr.NCU {
		seq := e.nd.sendSeq[h[0].Link] + 1
		if err := e.Env.Send(h, &Frame{Seq: seq, Payload: payload}); err != nil {
			return err
		}
		e.nd.sendSeq[h[0].Link] = seq
		e.nd.stats.Stamped++
		return nil
	}
	return e.Env.Send(h, payload)
}

// String renders the stats for ledgers and test failure messages.
func (s Stats) String() string {
	return fmt.Sprintf("stamped=%d passthrough=%d inorder=%d buffered=%d released=%d forced=%d stale=%d",
		s.Stamped, s.Passthrough, s.InOrder, s.Buffered, s.Released, s.Forced, s.Stale)
}
