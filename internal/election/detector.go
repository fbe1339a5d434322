package election

import (
	"fmt"
	"math"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// BeatTick drives the heartbeat detector one period forward; the experiment
// driver injects it (NCUs have no timers in this model — compare
// topology.Trigger and reliable.Tick).
type BeatTick struct{}

// beatProbe asks the leader for a liveness ack. Seq is monotone per prober,
// so stale or fault-duplicated acks can never vouch for a newer probe.
type beatProbe struct {
	From core.NodeID
	Seq  uint64
}

// beatAck answers a probe over the hardware reverse route. Neither message
// implements core.Corruptible, so a corruption fault garbles them into
// protocol-invisible frames — corruption can drop heartbeats but never forge
// one.
type beatAck struct {
	From core.NodeID
	Seq  uint64
}

// Detector is a heartbeat-based leader failure detector, the §4 hardening
// for the lossy-link model: after an election it watches the elected leader
// and raises a (sticky) suspicion when `Threshold` consecutive probe periods
// pass unanswered. Losing a probe or an ack costs one period of detection
// latency; suspicion is monotone — once raised it stays until SetLeader
// re-arms the detector — so under probabilistic loss the detector can be
// late, but a crashed leader is always eventually suspected, and the soak
// invariants assert exactly that direction.
//
// Setting PhiThreshold > 0 switches suspicion to phi-accrual-style
// accumulation (Hayashibara et al.), the gray-failure hardening: the
// detector learns the leader's observed ack inter-arrival distribution and
// suspects only when the current silence is improbably long *for that
// leader* — phi = silence / (meanGap·ln 10), i.e. -log10 of the silence's
// survival probability under an exponential inter-arrival fit. A leader
// behind a slowed link or inside a GC-style stall stretches the learned
// mean instead of burning a fixed miss budget, so slow-but-alive is not
// deposed while a dead leader's phi still grows without bound.
//
// The Detector is not a standalone core.Protocol: DetectorNode hosts it, in
// the soak's I8 scenario and in single-protocol tests.
type Detector struct {
	id core.NodeID
	// Threshold is how many consecutive unanswered periods raise suspicion
	// (fixed-miss mode, used when PhiThreshold is 0).
	Threshold int
	// PhiThreshold, when > 0, arms adaptive phi-accrual suspicion instead
	// of the fixed miss count.
	PhiThreshold float64

	leader    core.NodeID
	route     anr.Header
	seq       uint64 // last probe sent
	lastAcked uint64 // highest probe seq acked by the leader
	misses    int
	suspected bool

	ticksSeen int64   // probe periods since arming
	lastAckAt int64   // ticksSeen when ack evidence last arrived (0 = arming)
	meanGap   float64 // EWMA of observed ack inter-arrival gaps, in periods

	// Probes and Acks count this node's detector traffic for experiments.
	Probes int64
	Acks   int64
}

// newDetector builds the detector for one node. threshold <= 0 defaults to 3.
func newDetector(id core.NodeID, threshold int) *Detector {
	if threshold <= 0 {
		threshold = 3
	}
	return &Detector{id: id, Threshold: threshold, leader: core.None}
}

// NewAdaptiveDetector builds a phi-accrual detector. phi <= 0 defaults to 3
// (suspect when the current silence is ~1000x less likely than the learned
// inter-arrival mean would produce).
func NewAdaptiveDetector(id core.NodeID, phi float64) *Detector {
	d := newDetector(id, 0)
	if phi <= 0 {
		phi = 3
	}
	d.PhiThreshold = phi
	return d
}

// SetLeader arms the detector: leader is the node to watch and route an ANR
// route from here to it (nil/empty when this node IS the leader — it then
// only answers probes). Re-arming clears any previous suspicion.
func (d *Detector) SetLeader(leader core.NodeID, route anr.Header) {
	d.leader = leader
	d.route = route
	d.seq = 0
	d.lastAcked = 0
	d.misses = 0
	d.suspected = false
	d.ticksSeen = 0
	d.lastAckAt = 0
	d.meanGap = 0
}

// handle consumes detector messages; it returns false for payloads belonging
// to other protocols sharing the node.
func (d *Detector) handle(env core.Env, pkt core.Packet) bool {
	switch msg := pkt.Payload.(type) {
	case BeatTick:
		d.tick(env)
		return true
	case *beatProbe:
		// Any node can be probed; only answer for ourselves.
		if msg.From != d.id {
			d.Acks++
			_ = env.Send(pkt.Reverse, &beatAck{From: d.id, Seq: msg.Seq})
		}
		return true
	case *beatAck:
		if msg.From == d.leader && msg.Seq > d.lastAcked {
			d.lastAcked = msg.Seq
			// Feed the inter-arrival estimator: how many probe periods did
			// this round of ack evidence take? Gaps are floored at one
			// period (several acks inside one period are one observation).
			gap := float64(d.ticksSeen - d.lastAckAt)
			if gap < 1 {
				gap = 1
			}
			if d.meanGap == 0 {
				d.meanGap = gap
			} else {
				d.meanGap += (gap - d.meanGap) / 4
			}
			d.lastAckAt = d.ticksSeen
		}
		return true
	default:
		return false
	}
}

// phi returns the current suspicion level: -log10 of the probability that a
// live leader with the learned ack inter-arrival mean stays silent this long
// (exponential fit, so phi = silence/(mean·ln 10)). Before any ack arrives
// the mean defaults to one period: a leader that was dead on arming still
// accumulates suspicion. 0 when unarmed or self-watching.
func (d *Detector) phi() float64 {
	if d.leader == core.None || d.leader == d.id {
		return 0
	}
	mean := d.meanGap
	if mean < 1 {
		mean = 1
	}
	return float64(d.ticksSeen-d.lastAckAt) / (mean * math.Ln10)
}

// tick closes the previous probe period and opens the next one.
func (d *Detector) tick(env core.Env) {
	if d.leader == core.None || d.leader == d.id || d.suspected {
		return
	}
	d.ticksSeen++
	if d.seq > 0 && d.lastAcked < d.seq {
		d.misses++
		if d.PhiThreshold <= 0 && d.misses >= d.Threshold {
			d.suspected = true
			return
		}
	} else {
		d.misses = 0
	}
	if d.PhiThreshold > 0 && d.phi() >= d.PhiThreshold {
		d.suspected = true
		return
	}
	d.seq++
	d.Probes++
	// A route that no longer exists (or exceeds dmax) counts like a lost
	// probe: the misses pile up and suspicion follows.
	_ = env.Send(d.route, &beatProbe{From: d.id, Seq: d.seq})
}

// DetectorStats is a point-in-time observability snapshot (see Stats).
type DetectorStats struct {
	Leader    core.NodeID
	Suspected bool
	// Misses is the current consecutive-unanswered-period streak.
	Misses int
	// LastAckTick is the probe period in which ack evidence last arrived
	// (0 = none since arming).
	LastAckTick int64
	// phi is the current accrued suspicion; in fixed-miss mode it reports
	// the accrual the adaptive mode would see, for side-by-side comparison.
	Phi float64
	// MeanGap is the learned ack inter-arrival mean in periods.
	MeanGap float64
	Probes  int64
	Acks    int64
}

// String renders the snapshot for soak -v output and failure messages.
func (s DetectorStats) String() string {
	return fmt.Sprintf("leader=%d suspected=%v misses=%d lastack=%d phi=%.2f meangap=%.2f probes=%d acks=%d",
		s.Leader, s.Suspected, s.Misses, s.LastAckTick, s.Phi, s.MeanGap, s.Probes, s.Acks)
}

// Stats snapshots the detector for soak/experiment reporting.
func (d *Detector) Stats() DetectorStats {
	return DetectorStats{
		Leader:      d.leader,
		Suspected:   d.suspected,
		Misses:      d.misses,
		LastAckTick: d.lastAckAt,
		Phi:         d.phi(),
		MeanGap:     d.meanGap,
		Probes:      d.Probes,
		Acks:        d.Acks,
	}
}

// DetectorNode wraps a Detector as a standalone core.Protocol.
type DetectorNode struct {
	D *Detector
}

var _ core.Protocol = (*DetectorNode)(nil)

// Init implements core.Protocol.
func (n *DetectorNode) Init(core.Env) {}

// Deliver implements core.Protocol.
func (n *DetectorNode) Deliver(env core.Env, pkt core.Packet) {
	n.D.handle(env, pkt)
}

// LinkEvent implements core.Protocol.
func (n *DetectorNode) LinkEvent(core.Env, core.Port) {}
