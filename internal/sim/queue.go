package sim

import (
	"cmp"
	"slices"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// Event kinds of the scheduler's tagged record.
const (
	evActivation uint8 = iota // deliver one packet to an NCU (one system call)
	evLinkEvent               // data-link notification activation
	evInject                  // external injection arrives at a node
	evLinkFlip                // scripted hardware link state change
	evHop                     // packet arrives at a switching subsystem mid-route
)

// Flag bits of eventRec.flags.
const (
	flagInjected uint8 = 1 << iota // evActivation: the packet came from the driver, not the network
	flagCopy                       // evActivation: a selective-copy delivery
	flagUp                         // evLinkEvent, evLinkFlip: the link's new state
)

// eventRec is the one element type of the scheduler: the key (t, seq) — a
// strict total order, since seq is unique — and the event itself, stored by
// value wherever it waits (lane, ring slot, heap, shard outbox). It is
// written once, in place, by the code that schedules it (Network.schedule
// hands out the entry) and read in place at dispatch. An entry nothing waits
// in holds no references — payload, h and rev are nil — but its scalars are
// whatever the last event left, so a producer writes all of them at once
// through set and then only the references its event carries.
//
// A hop reads the fields by their names. An activation's core.Packet is
// assembled from them at dispatch: h is Remaining, rev is Reverse. A link
// event keeps its port in (arrivedOn, hopIdx, forwardedOn, flagUp) = (Local,
// Remote, RemoteID, Up); a link flip keeps its edge in (node, hopIdx) and the
// new state in flagUp.
type eventRec struct {
	t           core.Time
	seq         uint64
	payload     any
	h           anr.Header
	rev         anr.Header
	msg         int64
	node        core.NodeID
	hopIdx      int32
	arrivedOn   anr.ID
	forwardedOn anr.ID
	kind        uint8
	flags       uint8
}

// set writes every scalar of the event but its key.
func (e *eventRec) set(kind uint8, node core.NodeID, msg int64, hopIdx int32, arrivedOn, forwardedOn anr.ID, flags uint8) {
	e.kind, e.node, e.msg, e.hopIdx = kind, node, msg, hopIdx
	e.arrivedOn, e.forwardedOn, e.flags = arrivedOn, forwardedOn, flags
}

// release drops the references the event pinned.
func (e *eventRec) release() { e.payload, e.h, e.rev = nil, nil, nil }

func (a *eventRec) before(b *eventRec) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// port unpacks a link event's port.
func (e *eventRec) port() core.Port {
	return core.Port{Local: e.arrivedOn, Remote: core.NodeID(e.hopIdx), RemoteID: e.forwardedOn, Up: e.flags&flagUp != 0}
}

// laneChunk is the number of events in one chunk. A constant, not an option:
// 8, 16 and 32 measured within 5% of each other on the C >= 1 benchmark rows.
const laneChunk = 16

// chunk is the unit of event storage: a fixed run of events and the link to
// the next chunk of the same lane.
type chunk struct {
	evs  [laneChunk]eventRec
	next *chunk
}

// chunkPool is one event core's supply of chunks. Chunks return to it as
// lanes drain and are never handed back to the allocator, so made — the
// number ever allocated — is the pool's high-water mark and tracks the peak
// of events in flight, not the number scheduled.
type chunkPool struct {
	free *chunk
	made int
}

func (p *chunkPool) get() *chunk {
	c := p.free
	if c == nil {
		p.made++
		return new(chunk)
	}
	p.free, c.next = c.next, nil
	return c
}

func (p *chunkPool) put(c *chunk) {
	c.next = p.free
	p.free = c
}

// eventLane is a FIFO of events: a singly linked run of chunks drawn from the
// core's pool, written at the tail and read at the head. The same-time lane
// and every calendar-ring slot are one; an empty lane is four words and owns
// no chunk. Entries never move, so a producer fills the entry alloc returns
// where it will wait, and the run loop dispatches the front entry in place
// and drops it afterwards.
type eventLane struct {
	head, tail *chunk
	r, w       int32 // read index into head, write index into tail
	n          int
}

// alloc appends one entry and returns it for the caller to fill.
func (l *eventLane) alloc(p *chunkPool) *eventRec {
	if l.tail == nil || l.w == laneChunk {
		l.grow(p)
	}
	e := &l.tail.evs[l.w]
	l.w++
	l.n++
	return e
}

// grow links a chunk from the pool behind the tail.
func (l *eventLane) grow(p *chunkPool) {
	c := p.get()
	if l.tail == nil {
		l.head = c
	} else {
		l.tail.next = c
	}
	l.tail, l.w = c, 0
}

// front returns the oldest entry, which stays where it is until drop.
func (l *eventLane) front() *eventRec { return &l.head.evs[l.r] }

// drop removes the front entry, releasing its references, and returns its
// chunk to the pool once the chunk is read through or the lane is empty — so
// a pooled chunk pins nothing.
func (l *eventLane) drop(p *chunkPool) {
	l.head.evs[l.r].release()
	l.r++
	l.n--
	switch {
	case l.n == 0:
		p.put(l.head)
		*l = eventLane{}
	case l.r == laneChunk:
		c := l.head
		l.head, l.r = c.next, 0
		p.put(c)
	}
}

// stageRef is one entry of the stage's dispatch index.
type stageRef struct {
	key uint64
	ev  *eventRec
}

// eventStage is shard mode's promoted ring slot. Canonical keys, not push
// order, decide dispatch there, so the slot's chunks stay where they are and
// the stage sorts an index of (key, entry) pairs over them — 16 bytes moved
// per comparison swap instead of a whole event.
type eventStage struct {
	lane eventLane  // the promoted slot's chunks, entries in push order
	idx  []stageRef // lane's entries in key order
	pos  int        // idx[pos:] is still to dispatch
}

func (s *eventStage) len() int { return len(s.idx) - s.pos }

func (s *eventStage) front() *eventRec { return s.idx[s.pos].ev }

// load takes over the entries of l, leaving it empty. The stage must be
// drained.
func (s *eventStage) load(l *eventLane) {
	s.lane, *l = *l, eventLane{}
	s.idx, s.pos = s.idx[:0], 0
	i := int(s.lane.r)
	for c := s.lane.head; c != nil; c = c.next {
		end := laneChunk
		if c == s.lane.tail {
			end = int(s.lane.w)
		}
		for ; i < end; i++ {
			s.idx = append(s.idx, stageRef{c.evs[i].seq, &c.evs[i]})
		}
		i = 0
	}
	slices.SortFunc(s.idx, func(a, b stageRef) int { return cmp.Compare(a.key, b.key) })
}

// drop removes the front entry, releasing its references; the chunks go back
// to the pool together once the last entry is dropped.
func (s *eventStage) drop(p *chunkPool) {
	s.idx[s.pos].ev.release()
	s.idx[s.pos].ev = nil
	s.pos++
	if s.pos < len(s.idx) {
		return
	}
	for c := s.lane.head; c != nil; {
		next := c.next
		p.put(c)
		c = next
	}
	s.lane = eventLane{}
}

// eventHeap is a 4-ary min-heap of events ordered by (t, seq), holding what
// lies beyond the calendar ring's window. Compared with the binary
// container/heap it halves the sift-down depth, and its typed push/pop avoid
// the interface boxing that made every schedule/dispatch allocate. Any
// min-heap pops the same strict (t, seq) order, so the arity is invisible to
// simulation results.
type eventHeap struct {
	evs []eventRec
}

func (q *eventHeap) len() int { return len(q.evs) }

// alloc makes room for an event keyed (t, seq) and returns its entry for the
// caller to fill, key included, before the heap is touched again.
func (q *eventHeap) alloc(t core.Time, seq uint64) *eventRec {
	q.evs = append(q.evs, eventRec{})
	i := len(q.evs) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if p := &q.evs[parent]; t > p.t || (t == p.t && seq > p.seq) {
			break
		}
		q.evs[i] = q.evs[parent]
		i = parent
	}
	q.evs[i] = eventRec{}
	return &q.evs[i]
}

// push adds a copy of the keyed event *e.
func (q *eventHeap) push(e *eventRec) { *q.alloc(e.t, e.seq) = *e }

// pop moves the minimum into *into.
func (q *eventHeap) pop(into *eventRec) {
	evs := q.evs
	*into = evs[0]
	n := len(evs) - 1
	last := evs[n]
	evs[n] = eventRec{} // the vacated slot must not pin a payload
	evs = evs[:n]
	q.evs = evs
	if n == 0 {
		return
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < min(first+4, n); c++ {
			if evs[c].before(&evs[best]) {
				best = c
			}
		}
		if !evs[best].before(&last) {
			break
		}
		evs[i] = evs[best]
		i = best
	}
	evs[i] = last
}
