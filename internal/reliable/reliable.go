// Package reliable implements end-to-end reliable delivery of ANR-routed
// control messages on the fastnet model.
//
// The paper's §2 assumes the data-link layer makes every link either reliable
// or declared down. The lossy-link model (core.MsgFaults) withdraws that
// assumption: packets may be dropped, duplicated, corrupted or reordered in
// flight even on "up" links. This package restores exactly-once delivery in
// software, at measurable cost in the paper's own measures: every
// retransmission is extra hops (communication complexity) and every ack is an
// extra NCU activation (system-call complexity). Experiment E21 charts that
// overhead against the loss rate.
//
// Mechanics, all standard ARQ adapted to the model's constraints:
//
//   - Per-destination sequence numbers stamp every frame; the receiver keeps a
//     dedup window per source (contiguous floor + sparse set above it), so
//     fault-injected duplicates and retransmission races deliver at most once.
//   - Every frame carries an FNV-1a checksum over (src, dst, seq, payload
//     digest); corrupted frames fail verification and are dropped silently —
//     exactly what a damaged header CRC would do.
//   - Acks ride the hardware reverse route (pkt.Reverse, the paper's §2
//     reverse-path facility), so the receiver needs no routing knowledge.
//   - NCUs have no timers in this model: retransmission is driven by Tick
//     packets the driver injects (mirroring topology.Trigger). Each pending
//     frame backs off exponentially, with jitter drawn from Env.Rand() so
//     synchronized losses don't resynchronize retransmissions.
//   - A per-frame delivery deadline (in ticks) bounds the retry effort: when
//     it expires the frame is aborted and reported, modeling the "declare the
//     destination unreachable" escape hatch every end-to-end protocol needs.
package reliable

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// frame is one reliably-tracked message in flight. Frames are immutable after
// send (receivers may see the same value repeatedly through duplicates).
type frame struct {
	Src core.NodeID
	Dst core.NodeID
	Seq uint64
	// Sum is the FNV-1a checksum over (Src, Dst, Seq, payload digest);
	// receivers verify it before any state change.
	Sum     uint64
	Payload any
}

// CorruptedCopy implements core.Corruptible: link corruption damages the
// checksum and sequence fields the way real bit rot would, giving receiver
// verification something to reject instead of replacing the frame wholesale.
func (f *frame) CorruptedCopy(r *rand.Rand) any {
	c := *f
	c.Sum ^= 1 + uint64(r.Int63())
	if r.Intn(2) == 0 {
		c.Seq ^= 1 << uint(r.Intn(16))
	}
	return &c
}

// ack confirms receipt of one frame; it flows back over the hardware reverse
// route. Acks carry their own checksum: a corrupted ack must not confirm
// anything.
type ack struct {
	Src core.NodeID // the frame's destination (ack sender)
	Dst core.NodeID // the frame's source (ack receiver)
	Seq uint64
	Sum uint64
}

// CorruptedCopy implements core.Corruptible.
func (a *ack) CorruptedCopy(r *rand.Rand) any {
	c := *a
	c.Sum ^= 1 + uint64(r.Int63())
	return &c
}

// Tick drives retransmission: the driver injects it periodically (the model
// gives NCUs no timers; compare topology.Trigger). Each Tick is one unit of
// the endpoint's retransmission clock.
type Tick struct{}

// Stats counts the endpoint's software effort. All fields are cumulative.
type Stats struct {
	Sent        int64 // distinct payloads accepted for delivery
	Retransmits int64 // frames re-sent after a timeout
	Delivered   int64 // payloads handed to the application (exactly once each)
	Duplicates  int64 // frames discarded by the dedup window
	BadSum      int64 // frames or acks discarded by checksum verification
	Acked       int64 // pending frames confirmed
	DupAcks     int64 // acks for frames no longer pending
	Aborted     int64 // frames that hit their delivery deadline
	Garbled     int64 // unparseable frames (whole-payload corruption)
}

// pending tracks one unacked frame at the sender.
type pending struct {
	frame    *frame
	route    anr.Header
	attempt  int   // delivery attempts made so far (1 after the first send)
	nextAt   int64 // tick count at which to retransmit
	backoff  int64 // current backoff interval in ticks
	deadline int64 // tick count at which to abort (0 = never)
	sentAt   int64 // tick count of the most recent transmit (RTT sampling)
}

// Config parameterizes an Endpoint. The zero value is usable: RTO 1 tick,
// unbounded backoff doubling capped at MaxBackoff, no deadline.
type Config struct {
	// RTO is the initial retransmission timeout in ticks (default 1).
	RTO int64
	// MaxBackoff caps the exponential backoff in ticks (default 16*RTO).
	MaxBackoff int64
	// Deadline aborts a frame this many ticks after first send; 0 disables.
	Deadline int64
	// Adaptive enables Jacobson/Karn RTT estimation: the first-attempt RTO
	// of each destination tracks its smoothed ack round trip plus four mean
	// deviations (measured in ticks), so a destination behind a gray link
	// stops triggering spurious retransmissions. Frames that were ever
	// retransmitted are excluded from sampling (Karn's rule: their acks are
	// ambiguous), and until a clean sample exists the backed-off timeout is
	// retained for new frames to the same destination (Karn's algorithm in
	// full — otherwise a true RTT above RTO could never be learned). The
	// zero value keeps today's fixed-RTO behavior exactly.
	Adaptive bool
	// MinRTO clamps the adaptive RTO from below (default RTO). Ignored when
	// Adaptive is false.
	MinRTO int64
	// MaxRTO clamps the adaptive RTO from above (default MaxBackoff).
	// Ignored when Adaptive is false.
	MaxRTO int64
	// OnDeliver receives each payload exactly once, in arrival order.
	OnDeliver func(env core.Env, src core.NodeID, payload any)
	// OnAbort is called when a frame hits its deadline.
	OnAbort func(env core.Env, f *frame)
}

// rttState is one destination's Jacobson/Karn estimator in the classic
// fixed-point form (Van Jacobson's appendix / RFC 6298): srtt8 holds 8×SRTT
// and rttvar4 holds 4×RTTVAR, so the 1/8 and 1/4 smoothing gains survive the
// coarse integer tick clock.
type rttState struct {
	srtt8   int64
	rttvar4 int64
	samples int64
	// carry implements the second half of Karn's algorithm: until the first
	// unambiguous sample exists, a destination that forced retransmissions
	// keeps its backed-off timeout for new frames too. Without it a true
	// RTT above the configured RTO would retransmit every frame forever,
	// Karn's rule would exclude every ack, and the estimator could never
	// learn its way out.
	carry int64
}

func (st *rttState) observe(sample int64) {
	if st.samples == 0 {
		st.srtt8 = sample << 3
		st.rttvar4 = sample << 1
	} else {
		err := sample - st.srtt8>>3
		st.srtt8 += err
		if err < 0 {
			err = -err
		}
		st.rttvar4 += err - st.rttvar4>>2
	}
	st.samples++
}

// rto is SRTT + 4×RTTVAR, with the variance term floored at one tick so a
// perfectly steady destination still tolerates one tick of scheduling noise.
func (st *rttState) rto() int64 {
	return st.srtt8>>3 + max(1, st.rttvar4)
}

// RTTStats is the exported snapshot of one destination's estimator, as
// Endpoint.RTT returns it (E23 reads it per destination).
type RTTStats struct {
	SRTT    float64 // smoothed round trip, ticks
	RTTVar  float64 // smoothed mean deviation, ticks
	RTO     int64   // current first-attempt timeout, ticks (clamped)
	Samples int64   // accepted samples (Karn-excluded acks don't count)
}

// recvState is the per-source dedup window.
type recvState struct {
	// floor: all seqs <= floor have been delivered.
	floor uint64
	// above holds delivered seqs > floor (sparse, pruned as floor advances).
	above map[uint64]bool
}

// Endpoint is the per-node reliable-delivery state machine. It is not itself
// a core.Protocol — it is embedded in one (see Node) so hosts can multiplex
// it with other traffic. All methods must be called from protocol callbacks
// (activations are serialized per node), mirroring every other protocol in
// this repo.
type Endpoint struct {
	id  core.NodeID
	cfg Config

	nextSeq map[core.NodeID]uint64
	pend    map[core.NodeID]map[uint64]*pending
	recv    map[core.NodeID]*recvState
	rtt     map[core.NodeID]*rttState
	ticks   int64
	stats   Stats
}

// NewEndpoint returns the endpoint for one node.
func NewEndpoint(id core.NodeID, cfg Config) *Endpoint {
	if cfg.RTO <= 0 {
		cfg.RTO = 1
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 16 * cfg.RTO
	}
	if cfg.Adaptive {
		if cfg.MinRTO <= 0 {
			cfg.MinRTO = cfg.RTO
		}
		if cfg.MaxRTO <= 0 {
			cfg.MaxRTO = cfg.MaxBackoff
		}
	}
	return &Endpoint{
		id:      id,
		cfg:     cfg,
		nextSeq: make(map[core.NodeID]uint64),
		pend:    make(map[core.NodeID]map[uint64]*pending),
		recv:    make(map[core.NodeID]*recvState),
		rtt:     make(map[core.NodeID]*rttState),
	}
}

// rtoFor returns the first-attempt timeout for dst: the fixed RTO until the
// adaptive estimator has a sample, the clamped Jacobson/Karn value after.
func (e *Endpoint) rtoFor(dst core.NodeID) int64 {
	if !e.cfg.Adaptive {
		return e.cfg.RTO
	}
	st := e.rtt[dst]
	if st == nil || st.samples == 0 {
		if st != nil && st.carry > 0 {
			return min(st.carry, e.cfg.MaxRTO)
		}
		return e.cfg.RTO
	}
	return min(max(st.rto(), e.cfg.MinRTO), e.cfg.MaxRTO)
}

// RTT returns dst's estimator snapshot; ok is false before the first sample.
func (e *Endpoint) RTT(dst core.NodeID) (RTTStats, bool) {
	st := e.rtt[dst]
	if st == nil || st.samples == 0 {
		return RTTStats{}, false
	}
	return RTTStats{
		SRTT:    float64(st.srtt8) / 8,
		RTTVar:  float64(st.rttvar4) / 4,
		RTO:     e.rtoFor(dst),
		Samples: st.samples,
	}, true
}

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Pending returns the number of unacked frames.
func (e *Endpoint) Pending() int {
	n := 0
	for _, m := range e.pend {
		n += len(m)
	}
	return n
}

// checksum digests the frame identity and payload. Payload digesting goes
// through fmt: control payloads in this codebase are small value-ish structs
// whose %v rendering pins their content well enough for a fault model that
// flips bits via CorruptedCopy (typed corruption damages Sum/Seq directly, so
// verification never depends on digesting arbitrary depth).
func checksum(src, dst core.NodeID, seq uint64, payload any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%v", src, dst, seq, payload)
	return h.Sum64()
}

func ackSum(src, dst core.NodeID, seq uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "ack|%d|%d|%d", src, dst, seq)
	return h.Sum64()
}

// SendRoute queues payload for reliable delivery to dst over an explicit
// route. Retransmissions reuse it.
func (e *Endpoint) SendRoute(env core.Env, dst core.NodeID, route anr.Header, payload any) error {
	seq := e.nextSeq[dst] + 1
	e.nextSeq[dst] = seq
	f := &frame{Src: e.id, Dst: dst, Seq: seq, Payload: payload}
	f.Sum = checksum(f.Src, f.Dst, f.Seq, f.Payload)
	p := &pending{frame: f, route: route, backoff: e.rtoFor(dst)}
	if e.cfg.Deadline > 0 {
		p.deadline = e.ticks + e.cfg.Deadline
	}
	if m := e.pend[dst]; m == nil {
		e.pend[dst] = map[uint64]*pending{seq: p}
	} else {
		m[seq] = p
	}
	e.stats.Sent++
	e.transmit(env, p)
	return nil
}

// transmit sends one attempt of p and schedules the next timeout with
// exponential backoff plus rng jitter proportional to the current interval.
func (e *Endpoint) transmit(env core.Env, p *pending) {
	p.attempt++
	p.sentAt = e.ticks
	// Send errors (route through a down first link, dmax) are treated like
	// loss: the timeout path retries.
	_ = env.Send(p.route, p.frame)
	// Jitter scales with the interval actually being waited: a fixed
	// [0, RTO] draw becomes negligible once backoff has grown, so endpoints
	// that backed off together would retransmit in synchronized herds.
	jitter := int64(env.Rand().Intn(int(p.backoff) + 1))
	p.nextAt = e.ticks + p.backoff + jitter
	p.backoff = min(2*p.backoff, e.cfg.MaxBackoff)
}

// tick advances the retransmission clock one unit: due frames retransmit,
// expired frames abort. Destinations and sequences are visited in sorted
// order so discrete-event runs replay exactly.
func (e *Endpoint) tick(env core.Env) {
	e.ticks++
	dsts := make([]core.NodeID, 0, len(e.pend))
	for d := range e.pend {
		dsts = append(dsts, d)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, d := range dsts {
		m := e.pend[d]
		seqs := make([]uint64, 0, len(m))
		for s := range m {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, s := range seqs {
			p := m[s]
			if p.deadline > 0 && e.ticks >= p.deadline {
				delete(m, s)
				e.stats.Aborted++
				if e.cfg.OnAbort != nil {
					e.cfg.OnAbort(env, p.frame)
				}
				continue
			}
			if e.ticks < p.nextAt {
				continue
			}
			e.stats.Retransmits++
			e.transmit(env, p)
			if e.cfg.Adaptive {
				st := e.rtt[d]
				if st == nil {
					st = &rttState{}
					e.rtt[d] = st
				}
				if st.samples == 0 && p.backoff > st.carry {
					st.carry = p.backoff
				}
			}
		}
		if len(m) == 0 {
			delete(e.pend, d)
		}
	}
}

// Deliver feeds the endpoint one received payload. It returns true if the
// payload was a reliable-layer message (frame or ack) and was consumed; false
// means the payload belongs to some other protocol sharing the node.
func (e *Endpoint) Deliver(env core.Env, pkt core.Packet) bool {
	switch msg := pkt.Payload.(type) {
	case *frame:
		e.onFrame(env, pkt, msg)
		return true
	case *ack:
		e.onAck(msg)
		return true
	case core.Garbled:
		// An unparseable frame: physically arrived, protocol-invisible.
		e.stats.Garbled++
		return true
	case Tick:
		e.tick(env)
		return true
	default:
		return false
	}
}

// onFrame verifies, dedups, delivers, and always acks (re-acking duplicates
// is what heals a lost ack).
func (e *Endpoint) onFrame(env core.Env, pkt core.Packet, f *frame) {
	if f.Dst != e.id || f.Sum != checksum(f.Src, f.Dst, f.Seq, f.Payload) {
		e.stats.BadSum++
		return
	}
	st := e.recv[f.Src]
	if st == nil {
		st = &recvState{above: make(map[uint64]bool)}
		e.recv[f.Src] = st
	}
	fresh := f.Seq > st.floor && !st.above[f.Seq]
	if fresh {
		st.above[f.Seq] = true
		for st.above[st.floor+1] {
			st.floor++
			delete(st.above, st.floor)
		}
		e.stats.Delivered++
		if e.cfg.OnDeliver != nil {
			e.cfg.OnDeliver(env, f.Src, f.Payload)
		}
	} else {
		e.stats.Duplicates++
	}
	// ack over the hardware reverse route — even for duplicates: the dup may
	// mean our previous ack was lost.
	ack := &ack{Src: e.id, Dst: f.Src, Seq: f.Seq, Sum: ackSum(e.id, f.Src, f.Seq)}
	_ = env.Send(pkt.Reverse, ack)
}

// onAck retires the pending frame the ack names.
func (e *Endpoint) onAck(a *ack) {
	if a.Dst != e.id || a.Sum != ackSum(a.Src, a.Dst, a.Seq) {
		e.stats.BadSum++
		return
	}
	m := e.pend[a.Src]
	p := m[a.Seq]
	if p == nil {
		e.stats.DupAcks++
		return
	}
	// Karn's rule: only never-retransmitted frames yield RTT samples — an
	// ack for a retransmitted frame cannot be attributed to one attempt.
	if e.cfg.Adaptive && p.attempt == 1 {
		st := e.rtt[a.Src]
		if st == nil {
			st = &rttState{}
			e.rtt[a.Src] = st
		}
		st.observe(e.ticks - p.sentAt)
	}
	delete(m, a.Seq)
	if len(m) == 0 {
		delete(e.pend, a.Src)
	}
	e.stats.Acked++
}

// Node wraps an Endpoint as a standalone core.Protocol for hosts that run
// only reliable traffic (tests, the soak ledger, experiment E21). Payloads
// the endpoint doesn't recognize are ignored.
type Node struct {
	E *Endpoint
}

// NewNode builds the protocol instance for one node.
func NewNode(id core.NodeID, cfg Config) *Node {
	return &Node{E: NewEndpoint(id, cfg)}
}

var _ core.Protocol = (*Node)(nil)

// Init implements core.Protocol.
func (n *Node) Init(core.Env) {}

// Deliver implements core.Protocol.
func (n *Node) Deliver(env core.Env, pkt core.Packet) {
	n.E.Deliver(env, pkt)
}

// LinkEvent implements core.Protocol. Routes are the sender's concern; the
// endpoint itself holds no topology.
func (n *Node) LinkEvent(core.Env, core.Port) {}
