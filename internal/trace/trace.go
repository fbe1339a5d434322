// Package trace records structured execution events emitted by the fastnet
// runtimes. Traces feed the experiment harness and the causal-message
// analysis of the paper's appendix (internal/causal).
package trace

import (
	"sync"

	"fastnet/internal/graph"
)

// Kind enumerates event types.
type Kind int

// Event kinds. Send is recorded once per routed packet (a multicast of k
// routes records k sends sharing one activation). The KindFault* kinds are
// emitted by the lossy-link model (core.MsgFaults): the event's Node is the
// switching subsystem whose outgoing traversal was perturbed, and Cause
// carries the fault tag ("drop", "dup", "corrupt", "jitter", "reorder",
// "slow").
const (
	KindSend Kind = iota + 1
	KindDeliver
	KindInject
	KindDrop
	KindLinkEvent
	KindFaultDrop
	KindFaultDup
	KindFaultCorrupt
	KindFaultJitter
	KindFaultReorder
	KindFaultSlow
	// The KindCap* kinds are emitted by the capacity model (core.Capacity):
	// KindCapQueueDrop when an activation is rejected at a full NCU service
	// queue, KindCapLinkDrop when a traversal finds its directed link's token
	// bucket empty. The event's Node is the NCU (queue) or the switching
	// subsystem at the link's tail (link).
	KindCapQueueDrop
	KindCapLinkDrop
)

// Event is one runtime occurrence. Act identifies the NCU activation in
// which the event happened: for KindDeliver/KindInject/KindLinkEvent it is
// the activation performing the receive; for KindSend it is the activation
// that issued the send (0 when sent from outside any activation). Msg is a
// run-unique message ID linking each send to its deliveries; copies of one
// packet share the Msg of their send, as do fault-injected duplicates.
// Cause is empty except on fault events, where it names the perturbation.
type Event struct {
	Kind  Kind
	Time  int64
	Node  graph.NodeID
	Act   int64
	Msg   int64
	Cause string
}

// Sink consumes events. Implementations must be safe for concurrent use by
// the goroutine runtime.
type Sink interface {
	Record(Event)
}

// Buffer is an in-memory Sink.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Record appends e.
func (b *Buffer) Record(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = append(b.events, e)
}

// Events returns a snapshot of the recorded events in record order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// Serial is an in-memory Sink for single-threaded producers: Record is a
// plain append with no lock, which matters on the discrete-event runtime
// where every event of a run goes through one goroutine. Not safe for
// concurrent use — the goroutine runtime keeps using Buffer.
type Serial struct {
	events []Event
}

// NewSerial returns an empty serial sink with room for n events before the
// first growth (n <= 0 reserves nothing).
func NewSerial(n int) *Serial {
	if n <= 0 {
		return &Serial{}
	}
	return &Serial{events: make([]Event, 0, n)}
}

// Record implements Sink.
func (s *Serial) Record(e Event) { s.events = append(s.events, e) }

// Events returns a snapshot of the recorded events in record order.
func (s *Serial) Events() []Event { return append([]Event(nil), s.events...) }

// Discard is a Sink that drops everything; used when tracing is off.
type Discard struct{}

// Record implements Sink.
func (Discard) Record(Event) {}

// PerNode projects a trace onto its nodes: events grouped by Event.Node,
// preserving stream order within each node. The projection is the
// per-observer view of an execution — what one NCU and its switching
// subsystem saw, in the order they saw it — and is the comparison unit of
// the cut-through differential tests: executions that interleave
// differently across nodes but look identical to every observer are
// behaviorally equivalent.
func PerNode(events []Event) map[graph.NodeID][]Event {
	byNode := make(map[graph.NodeID][]Event)
	for _, e := range events {
		byNode[e.Node] = append(byNode[e.Node], e)
	}
	return byNode
}
