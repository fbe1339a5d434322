package core

import (
	"fmt"
	"math/rand"

	"fastnet/internal/trace"
)

// MsgFaults configures the lossy-link model: per-link-traversal message
// perturbations layered on top of the binary up/down link state. The paper's
// §2 assumes a data-link protocol that makes every link reliable-or-declared-
// down; this surface weakens that assumption so the software price of
// recovering reliability (internal/reliable) can be measured in the paper's
// own system-call and hop measures.
//
// Each probability applies independently per link traversal (not per
// packet): a long route rolls once per hop, so loss compounds with path
// length exactly as it does on a real fabric. The zero value disables the
// model entirely. Both runtimes draw rolls from a dedicated seeded source,
// so on the discrete-event runtime a run remains a pure function of the
// seed.
type MsgFaults struct {
	// Drop is the probability a traversal silently loses the packet.
	Drop float64
	// Dup is the probability a traversal delivers the packet twice: the
	// duplicate continues over the same remaining route, so every
	// downstream NCU sees the payload again.
	Dup float64
	// Corrupt is the probability a traversal damages the payload. Payloads
	// implementing Corruptible produce a deterministic mangled copy (so
	// checksum verification has something to catch); all other payloads
	// are replaced by Garbled, the unparseable-frame marker.
	Corrupt float64
	// Jitter is the probability a traversal is delayed by extra hardware
	// time drawn from [1, JitterMax]. The goroutine runtime draws the delay
	// too but has no clock to spend it on: the packet is delivered out of
	// order relative to queued packets. This is the model's
	// bounded-reordering knob.
	Jitter float64
	// JitterMax bounds the extra per-hop delay; 0 means 1.
	JitterMax Time
	// Reorder is the probability a traversal violates the link's FIFO
	// discipline: the packet is held back by extra hardware time drawn from
	// [1, ReorderWindow] (on the goroutine runtime, a delay drawn and spent
	// as a random inbox position), letting later traffic on the same link
	// overtake it. It is jitter's channel-order sibling, counted and
	// traced separately so FIFO-sensitive protocols can attribute failures.
	Reorder float64
	// ReorderWindow bounds how far a reordered packet can lag; 0 means 1.
	ReorderWindow Time
	// Slowdown is the probability a traversal crosses the link while it is
	// in a degraded ("gray") state: the link neither fails nor reorders, it
	// just takes longer. On the discrete-event runtime the hop's hardware
	// delay is inflated by (SlowFactor-1)× the configured per-hop delay plus
	// an additive draw from [1, SlowMax]; the goroutine runtime, which has
	// no delay model, draws it with C = 0 and marks the delivery reordered
	// (a late packet can be overtaken). Distinct from Jitter so degradation-aware timers can be
	// measured against transient noise separately from sustained slowness.
	Slowdown float64
	// SlowFactor multiplies the configured per-hop hardware delay of a
	// slowed traversal; values <= 1 contribute no multiplicative term.
	SlowFactor float64
	// SlowMax bounds the additive inflation of a slowed traversal; 0 means 1.
	SlowMax Time
}

// Enabled reports whether any perturbation is configured.
func (f MsgFaults) Enabled() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Corrupt > 0 || f.Jitter > 0 || f.Reorder > 0 || f.Slowdown > 0
}

// Scale returns a copy of f with every probability multiplied by k (capped
// at 1); schedule generators use it to shape bursty epochs.
func (f MsgFaults) Scale(k float64) MsgFaults {
	s := f
	s.Drop = min(1, f.Drop*k)
	s.Dup = min(1, f.Dup*k)
	s.Corrupt = min(1, f.Corrupt*k)
	s.Jitter = min(1, f.Jitter*k)
	s.Reorder = min(1, f.Reorder*k)
	s.Slowdown = min(1, f.Slowdown*k)
	return s
}

// String renders the profile for repro lines. The reorder and slowdown
// dimensions are appended only when configured, so profiles predating them
// keep their historical byte-identical rendering.
func (f MsgFaults) String() string {
	s := fmt.Sprintf("drop=%g dup=%g corrupt=%g jitter=%g/%d",
		f.Drop, f.Dup, f.Corrupt, f.Jitter, f.JitterMax)
	if f.Reorder > 0 {
		s += fmt.Sprintf(" reorder=%g/%d", f.Reorder, f.ReorderWindow)
	}
	if f.Slowdown > 0 {
		s += fmt.Sprintf(" slow=%g/%g/%d", f.Slowdown, f.SlowFactor, f.SlowMax)
	}
	return s
}

// MsgFault is the outcome of one per-traversal roll.
type MsgFault int

// Per-traversal fault outcomes.
const (
	faultNone MsgFault = iota
	FaultDrop
	FaultDup
	FaultCorrupt
	FaultJitter
	FaultReorder
	FaultSlowdown
)

// faultLedger is how each fault is written down: its tag (a trace event's
// Cause, a repro line's word) and the trace event it is recorded as.
var faultLedger = [...]struct {
	tag  string
	kind trace.Kind
}{
	faultNone:     {tag: "none"},
	FaultDrop:     {"drop", trace.KindFaultDrop},
	FaultDup:      {"dup", trace.KindFaultDup},
	FaultCorrupt:  {"corrupt", trace.KindFaultCorrupt},
	FaultJitter:   {"jitter", trace.KindFaultJitter},
	FaultReorder:  {"reorder", trace.KindFaultReorder},
	FaultSlowdown: {"slow", trace.KindFaultSlow},
}

// String names the fault for trace cause tags.
func (k MsgFault) String() string {
	if k < 0 || int(k) >= len(faultLedger) {
		return fmt.Sprintf("fault(%d)", int(k))
	}
	return faultLedger[k].tag
}

// Count is the fault ledger's one entry point: the fault rolled for message
// msg's traversal out of node at, at time now on the runtime's clock, is
// counted into m and recorded in sink with its tag as the Cause. No fault is
// no entry. What a fault does to the packet is MsgFaults.Cross.
func (k MsgFault) Count(m *Metrics, sink trace.Sink, now int64, at NodeID, msg int64) {
	switch k {
	case faultNone:
		return
	case FaultDrop:
		m.FaultDrops++
	case FaultDup:
		m.FaultDups++
	case FaultCorrupt:
		m.FaultCorrupts++
	case FaultJitter:
		m.FaultJitters++
	case FaultReorder:
		m.FaultReorders++
	case FaultSlowdown:
		m.FaultSlowdowns++
	}
	sink.Record(trace.Event{Kind: faultLedger[k].kind, Time: now, Node: at, Msg: msg, Cause: faultLedger[k].tag})
}

// Roll draws the fault for one link traversal. A single uniform draw is
// partitioned over the configured probabilities, so at most one fault
// applies per traversal and the rng consumption per hop is constant (one
// extra draw for jitter length or corruption shape happens only when that
// fault fires).
func (f *MsgFaults) Roll(r *rand.Rand) MsgFault {
	if !f.Enabled() {
		return faultNone
	}
	u := r.Float64()
	switch {
	case u < f.Drop:
		return FaultDrop
	case u < f.Drop+f.Dup:
		return FaultDup
	case u < f.Drop+f.Dup+f.Corrupt:
		return FaultCorrupt
	case u < f.Drop+f.Dup+f.Corrupt+f.Jitter:
		return FaultJitter
	case u < f.Drop+f.Dup+f.Corrupt+f.Jitter+f.Reorder:
		return FaultReorder
	// The slowdown term is appended after reorder so gray-free profiles
	// partition the draw exactly as before this dimension existed.
	case u < f.Drop+f.Dup+f.Corrupt+f.Jitter+f.Reorder+f.Slowdown:
		return FaultSlowdown
	default:
		return faultNone
	}
}

// Cross is one live-link traversal under the profile: one Roll, then, from
// the same r, the fired fault's own draw — the damaged payload of a
// corruption, or the extra delay of a jitter, reorder or slowdown over a link
// whose configured per-hop delay is c. It returns the fault, the payload that
// reaches the far end and the extra delay (0 for the other faults). A drop or
// a duplicate is the caller's to carry out; a duplicate re-crosses after a
// JitterDelay drawn from r after this call.
func (f *MsgFaults) Cross(r *rand.Rand, c Time, payload any) (MsgFault, any, Time) {
	k := f.Roll(r)
	var extra Time
	switch k {
	case FaultCorrupt:
		payload = CorruptPayload(payload, r)
	case FaultJitter:
		extra = f.JitterDelay(r)
	case FaultReorder:
		extra = f.ReorderDelay(r)
	case FaultSlowdown:
		extra = f.SlowdownDelay(r, c)
	}
	return k, payload, extra
}

// DelayBound is the largest extra delay the profile can add to one traversal
// of a link whose per-hop delay is c: the most a delay from Cross, or a
// duplicate's JitterDelay, can be. 0 when nothing that delays is enabled.
func (f MsgFaults) DelayBound(c Time) Time {
	var b Time
	if f.Jitter > 0 || f.Dup > 0 {
		b = max(1, f.JitterMax)
	}
	if f.Reorder > 0 {
		b = max(b, 1, f.ReorderWindow)
	}
	if f.Slowdown > 0 {
		s := Time(1)
		if f.SlowFactor > 1 {
			s += Time(float64(c) * (f.SlowFactor - 1))
		}
		if f.SlowMax > 1 {
			s += f.SlowMax - 1
		}
		b = max(b, s)
	}
	return b
}

// JitterDelay draws the extra hardware delay of one jitter fault.
func (f *MsgFaults) JitterDelay(r *rand.Rand) Time {
	if f.JitterMax <= 1 {
		return 1
	}
	return 1 + Time(r.Int63n(int64(f.JitterMax)))
}

// ReorderDelay draws the extra hold-back delay of one reorder fault.
func (f *MsgFaults) ReorderDelay(r *rand.Rand) Time {
	if f.ReorderWindow <= 1 {
		return 1
	}
	return 1 + Time(r.Int63n(int64(f.ReorderWindow)))
}

// SlowdownDelay draws the extra hardware delay of one slowdown fault over a
// link whose configured per-hop delay is c: (SlowFactor-1)×c models the
// degraded transmission rate, the additive draw from [1, SlowMax] models
// queueing inside the gray switch. Always at least 1 so a slowdown is never
// invisible (and breaks out of fused zero-delay chains).
func (f *MsgFaults) SlowdownDelay(r *rand.Rand, c Time) Time {
	extra := Time(1)
	if f.SlowFactor > 1 {
		extra += Time(float64(c) * (f.SlowFactor - 1))
	}
	if f.SlowMax > 1 {
		extra += Time(r.Int63n(int64(f.SlowMax)))
	}
	return extra
}

// Corruptible lets a payload type opt into realistic corruption: the fault
// layer calls CorruptedCopy to obtain a mangled-but-typed copy (e.g. a frame
// with a damaged checksum field), which is what gives receiver-side checksum
// verification something real to reject. The copy must not alias mutable
// state of the original, and must be a deterministic function of r.
type Corruptible interface {
	CorruptedCopy(r *rand.Rand) any
}

// Garbled replaces payloads that do not implement Corruptible when a
// corruption fault fires: the frame arrived but is unparseable. Protocols
// that switch on payload type ignore it naturally, which models "discarded
// by the header CRC" — no phantom state can ever be installed from it.
type Garbled struct{}

// CorruptPayload produces the damaged version of payload for one corruption
// fault.
func CorruptPayload(payload any, r *rand.Rand) any {
	if c, ok := payload.(Corruptible); ok {
		return c.CorruptedCopy(r)
	}
	return Garbled{}
}
