package sim

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

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

// eventRec is the one element type of the scheduler: the key seq and the
// event itself, stored by value wherever it waits. The instant is not in it: a
// lane or stage entry is due now, a ring entry at the instant its slot stands
// for, and the heap and the shard outboxes keep it beside the record
// (timedEvent). It is written once, in place, by the code that schedules it
// (spine.schedule hands out the entry) and read in place at dispatch. An entry
// nothing waits in holds no references — its refs are zero — but its scalars
// are whatever the last event left, so a producer writes all of them at once
// through set and then the references its event carries through carry.
//
// A hop reads the fields by their names. An activation's core.Packet is
// assembled from them at dispatch: the refs give Remaining and Reverse. A link
// event keeps its port in (arrivedOn, hopIdx, forwardedOn, flagUp) = (Local,
// Remote, RemoteID, Up); a link flip keeps its edge in (node, hopIdx) and the
// new state in flagUp.
type eventRec struct {
	seq uint64
	refs
	msg         int64
	node        core.NodeID
	hopIdx      int32
	arrivedOn   anr.ID
	forwardedOn anr.ID
	kind        uint8
	flags       uint8
}

// refs are what an event pins: its payload, header and reverse route, each
// route kept as its first hop and an int32 length — 24 bytes where two slices
// take 48 — and given back with cap == len, as core.Packet's Reverse contract
// asks. The package's only unsafe is here.
type refs struct {
	payload      any
	h, rev       *anr.Hop
	hLen, revLen int32
}

func (r *refs) carry(payload any, h, rev anr.Header) {
	*r = refs{payload, unsafe.SliceData(h), unsafe.SliceData(rev), int32(len(h)), int32(len(rev))}
}
func (r *refs) release()            { *r = refs{} }
func (r *refs) header() anr.Header  { return unsafe.Slice(r.h, r.hLen) }
func (r *refs) reverse() anr.Header { return unsafe.Slice(r.rev, r.revLen) }

// set writes every scalar of the event but its key.
func (e *eventRec) set(kind uint8, node core.NodeID, msg int64, hopIdx int32, arrivedOn, forwardedOn anr.ID, flags uint8) {
	e.kind, e.node, e.msg, e.hopIdx = kind, node, msg, hopIdx
	e.arrivedOn, e.forwardedOn, e.flags = arrivedOn, forwardedOn, flags
}

// timedEvent is an event with its instant, where nothing else gives it: the
// heap and the shard outboxes.
type timedEvent struct {
	t  core.Time
	ev eventRec
}

func (a *timedEvent) before(b *timedEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.ev.seq < b.ev.seq
}

// port unpacks a link event's port.
func (e *eventRec) port() core.Port {
	return core.Port{Local: e.arrivedOn, Remote: core.NodeID(e.hopIdx), RemoteID: e.forwardedOn, Up: e.flags&flagUp != 0}
}

// laneChunk is the number of events in one chunk, the most that fit the
// chunk's size class: 17 80-byte records and a word are 1,368 bytes of a
// 1,408-byte class, 83 per event in flight (TestEventRecordFitsItsClass).
const laneChunk = 17

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
// the stage orders an index of (key, entry) pairs over them. A key is
// (origin+1)<<40 | counter and one origin's events reach a slot in counter
// order (see nextKey), so a stable partition of the push-order index by the
// origin field, 8 bits per counting pass, is key order in O(entries).
type eventStage struct {
	lane     eventLane  // the promoted slot's chunks, entries in push order
	buf      []stageRef // the index and the partition's scratch, grown by doubling
	pos, end int32      // buf[pos:end] is the index in key order still to dispatch
}

func (s *eventStage) len() int { return int(s.end - s.pos) }

func (s *eventStage) front() *eventRec { return s.buf[s.pos].ev }

// load takes over the entries of l, leaving it empty. The stage must be
// drained.
func (s *eventStage) load(l *eventLane) {
	s.lane, *l = *l, eventLane{}
	n := s.lane.n
	if len(s.buf) < 2*n {
		s.buf = make([]stageRef, max(2*n, 2*len(s.buf)))
	}
	// The index lives in buf[at:at+n]. A pass over a digit every origin field
	// shares (a zero byte of or^and) would leave it as it is, so none runs.
	idx, tmp, at := s.buf[:0:n], s.buf[n:2*n], 0
	or, and := uint64(0), ^uint64(0)
	i := int(s.lane.r)
	for c := s.lane.head; c != nil; c = c.next {
		end := laneChunk
		if c == s.lane.tail {
			end = int(s.lane.w)
		}
		for ; i < end; i++ {
			k := c.evs[i].seq
			idx = append(idx, stageRef{k, &c.evs[i]})
			or, and = or|k>>originShift, and&(k>>originShift)
		}
		i = 0
	}
	for diff, sh := or^and, originShift; diff != 0; diff, sh = diff>>8, sh+8 {
		if diff&0xff == 0 {
			continue
		}
		var next [256]int32 // per digit, where its next entry goes
		for _, r := range idx {
			next[byte(r.key>>sh)]++
		}
		sum := int32(0)
		for d, c := range next {
			next[d], sum = sum, sum+c
		}
		for _, r := range idx {
			d := byte(r.key >> sh)
			tmp[next[d]] = r
			next[d]++
		}
		idx, tmp, at = tmp, idx, n-at
	}
	s.pos, s.end = int32(at), int32(at+n)
}

// drop removes the front entry, releasing its references; the chunks go back
// to the pool together once the last entry is dropped.
func (s *eventStage) drop(p *chunkPool) {
	s.buf[s.pos].ev.release()
	s.pos++
	if s.pos < s.end {
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
// container/heap it halves the sift-down depth, and its typed alloc/pop avoid
// the interface boxing that made every schedule/dispatch allocate. Any
// min-heap pops the same strict (t, seq) order, so the arity is invisible to
// simulation results.
type eventHeap struct {
	evs []timedEvent
}

func (q *eventHeap) len() int { return len(q.evs) }

// alloc makes room for an event keyed (t, seq) and returns its entry for the
// caller to fill, key included, before the heap is touched again.
func (q *eventHeap) alloc(t core.Time, seq uint64) *eventRec {
	q.evs = append(q.evs, timedEvent{})
	i := len(q.evs) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if p := &q.evs[parent]; t > p.t || (t == p.t && seq > p.ev.seq) {
			break
		}
		q.evs[i] = q.evs[parent]
		i = parent
	}
	q.evs[i] = timedEvent{t: t}
	return &q.evs[i].ev
}

// pop moves the minimum's event into *into.
func (q *eventHeap) pop(into *eventRec) {
	evs := q.evs
	*into = evs[0].ev
	n := len(evs) - 1
	last := evs[n]
	evs[n] = timedEvent{} // the vacated slot must not pin a payload
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

// Bounds of the calendar ring's span. The span is auto-sized from the delay
// envelope (config.ringSize) so that C >= 1 and heavy-jitter runs keep the
// ~100% heap bypass the unit-delay defaults get from the 64-slot minimum, and
// doubles on demand (spine.place) as NCU backlogs push past it. The cap
// bounds memory (a few hundred KB of lane headers) and the clock-advance
// scan; what lies beyond it overflows to the heap (SchedStats.RingOverflows).
const (
	minRingWindow = 64
	maxRingWindow = 8192
)

// roundRingWindow rounds n up to a power of two in [minRingWindow,
// maxRingWindow]; powers of two make the slot index a mask and the occupancy
// bitmap a whole number of words.
func roundRingWindow(n int) int {
	w := minRingWindow
	for w < n && w < maxRingWindow {
		w <<= 1
	}
	return w
}

// eventTier names where next found the event that done will retire.
type eventTier uint8

const (
	tierHeap eventTier = iota
	tierStage
	tierLane
)

// spine is the scheduler of one event core: the clock and every event waiting
// on it, dispatched in the strict total order (t, key). Network holds one by
// value, as does every shard child.
//
// An event waits in one of three places. Scheduled for the current instant it
// joins the same-time lane, a FIFO. Scheduled within span instants of now —
// nearly every event, the span being sized from the delay envelope — it joins
// the calendar ring's FIFO slot for its instant (slot t & mask), which is
// promoted wholesale when the clock reaches t. A push just past the span
// (less than two spans out) doubles an auto-sized ring instead, up to
// maxRingWindow, so NCU backlogs follow the ring out; anything farther out
// goes to the overflow heap.
//
// Why that is (t, key) order when keys are handed out in increasing order
// (the classic contract): at instant t the heap's residue dispatches first,
// then the promoted slot, then the lane. A heap entry for t was scheduled
// while now <= t - span; a ring entry for t while t - span < now < t; a lane
// entry while now == t. The clock only moves forward (RunUntil refuses a
// deadline behind it) and the span only grows, so every heap entry for t
// predates every ring entry for t, which predates every lane entry — and
// earlier means a smaller key. Each tier is FIFO (the heap by key), so the
// concatenation is key order. Under the shard contract (keyed), where keys
// are canonical rather than increasing, the promoted slot is instead
// partitioned by origin into key order (the stage: each origin's entries
// already sit in counter order) and merged with the heap's residue key by
// key; the lane still drains last, in creation order — "what was scheduled
// before t in key order, then what t itself creates in creation order".
// TestSpineMatchesHeapModel checks both against a single binary heap.
type spine struct {
	now   core.Time
	lane  eventLane  // events for now, in push order
	stage eventStage // keyed only: the promoted slot, in key order
	heap  eventHeap  // beyond the ring: two or more spans out, or past a ring that cannot grow
	pool  chunkPool  // the chunks behind lane, stage and every ring slot

	popped eventRec  // the heap's minimum while it dispatches
	from   eventTier // where the event next returned waits

	ring    []eventLane
	bits    []uint64  // slot-occupancy bitmap: bit s set iff ring[s] is nonempty
	span    core.Time // len(ring), a power of two
	mask    core.Time // span - 1
	pending int       // entries across ring slots
	keyed   bool      // shard contract: promote through the stage
	fixed   bool      // the span is pinned (WithFixedRing): place never grows it

	stats SchedStats
	sent  SchedStats // the part of stats already added to the totals sink
}

// initRing allocates the calendar ring at span w (see roundRingWindow).
func (s *spine) initRing(w int) {
	s.ring = make([]eventLane, w)
	s.bits = make([]uint64, w/64)
	s.span = core.Time(w)
	s.mask = core.Time(w - 1)
}

// schedule reserves the entry of a new event keyed (t, key), t clamped to
// now, and returns it for the caller to fill in (see eventRec) before
// anything else is scheduled.
func (s *spine) schedule(t core.Time, key uint64) *eventRec {
	var e *eventRec
	if t <= s.now {
		t = s.now
		s.stats.LanePushes++
		e = s.lane.alloc(&s.pool)
	} else {
		e = s.place(t, key)
	}
	e.seq = key
	return e
}

// place reserves the entry of a future event keyed (t, key): one schedule
// created, or one another shard hands over at a window barrier (which is why
// the key is the caller's to set: the event arrives whole). Boundary events
// land strictly after the window, and a keyed spine dispatches a slot in key
// order, so neither the tier nor the order the barrier visits sources in ever
// shows (each source's outbox arrives in push order: see nextKey).
func (s *spine) place(t core.Time, key uint64) *eventRec {
	if t > s.now && t-s.now < s.span {
		s.stats.RingPushes++
		idx := t & s.mask
		s.bits[idx>>6] |= 1 << (idx & 63)
		s.pending++
		if s.pending > s.stats.RingPeak {
			s.stats.RingPeak = s.pending
		}
		return s.ring[idx].alloc(&s.pool)
	}
	if !s.fixed && t > s.now && t-s.now < 2*s.span && s.span < maxRingWindow {
		// Just past the span: NCU backlogs creep out one P at a time, so an
		// auto-sized ring doubles and follows them.
		s.grow(2 * len(s.ring))
		return s.place(t, key)
	}
	s.stats.RingOverflows++
	s.stats.HeapPushes++
	e := s.heap.alloc(t, key)
	if n := s.heap.len(); n > s.stats.HeapPeak {
		s.stats.HeapPeak = n
	}
	return e
}

// next advances the clock to the earliest pending event with t <= deadline
// and returns it, counted, to be dispatched where it waits — entries never
// move, and whatever the dispatch schedules lands behind it — and then
// retired with done. It returns nil when nothing is pending, leaving the
// clock alone, or when the earliest event lies past the deadline, with the
// clock stopped at the deadline; pending ring entries stay put then, since
// their instants only get closer.
func (s *spine) next(deadline core.Time) *eventRec {
	for {
		switch {
		case s.heap.len() > 0 && s.heap.evs[0].t == s.now &&
			(s.stage.len() == 0 || s.heap.evs[0].ev.seq < s.stage.front().seq):
			s.heap.pop(&s.popped)
			s.stats.Events++
			s.from = tierHeap
			return &s.popped
		case s.stage.len() > 0:
			s.stats.Events++
			s.from = tierStage
			return s.stage.front()
		case s.lane.n > 0:
			s.stats.Events++
			s.from = tierLane
			return s.lane.front()
		}
		// Nothing left at this instant: advance to the earliest pending one
		// across ring and heap.
		t := s.nextTime()
		if t < 0 {
			return nil
		}
		if t > deadline {
			s.now = deadline
			return nil
		}
		s.now = t
		if slot := &s.ring[t&s.mask]; slot.n > 0 {
			// Promote the slot of instant t: lane and stage are empty.
			s.bits[(t&s.mask)>>6] &^= 1 << (t & s.mask & 63)
			s.pending -= slot.n
			if s.keyed {
				s.stage.load(slot)
			} else {
				s.lane, *slot = *slot, eventLane{}
			}
		}
	}
}

// done retires the event next returned, releasing what it pinned.
func (s *spine) done() {
	switch s.from {
	case tierHeap:
		s.popped.release()
	case tierStage:
		s.stage.drop(&s.pool)
	case tierLane:
		s.lane.drop(&s.pool)
	}
}

// nextTime is the earliest pending instant, or -1 when the spine is drained.
func (s *spine) nextTime() core.Time {
	if s.lane.n > 0 || s.stage.len() > 0 {
		return s.now
	}
	t := s.nextRingInstant()
	if s.heap.len() > 0 && (t < 0 || s.heap.evs[0].t < t) {
		t = s.heap.evs[0].t
	}
	return t
}

// nextRingInstant returns the earliest pending ring instant, or -1. Every
// pending instant lies in (now, now+span), and slot order starting after
// now's slot — wrapping once — is instant order, so a word-at-a-time scan of
// the occupancy bitmap finds it in O(span/64) words rather than O(span) slot
// probes: the auto-sizer produces large, sparse rings.
func (s *spine) nextRingInstant() core.Time {
	if s.pending == 0 {
		return -1
	}
	for dt := core.Time(1); dt <= s.span; {
		idx := (s.now + dt) & s.mask
		if w := s.bits[idx>>6] >> (idx & 63); w != 0 {
			return s.now + dt + core.Time(bits.TrailingZeros64(w))
		}
		dt += 64 - (idx & 63)
	}
	return -1
}

// grow widens the ring to span w, re-bucketing the pending slots. Every
// pending instant owns exactly one old slot and distinct instants stay
// distinct modulo any larger power of two, so a slot moves whole — its chunks
// stay where they are — and per-instant entry order carries over. The ring
// never shrinks: an entry in a slot a heap push could no longer reach would
// break the order argument above.
func (s *spine) grow(w int) {
	if w <= len(s.ring) {
		return
	}
	old, oldMask := s.ring, s.mask
	s.initRing(w)
	for i := range old {
		if old[i].n > 0 {
			idx := (s.now + (core.Time(i)-s.now)&oldMask) & s.mask // its instant lies in (now, now+span)
			s.ring[idx] = old[i]
			s.bits[idx>>6] |= 1 << (idx & 63)
		}
	}
}

// publish adds the counters accumulated since the last publish to the sink.
func (s *spine) publish(to *SchedTotals) {
	d := s.stats
	d.Events -= s.sent.Events
	d.HeapPushes -= s.sent.HeapPushes
	d.LanePushes -= s.sent.LanePushes
	d.RingPushes -= s.sent.RingPushes
	d.RingOverflows -= s.sent.RingOverflows
	d.FusedHops -= s.sent.FusedHops
	s.sent = s.stats
	to.mu.Lock()
	to.sum.add(d)
	to.mu.Unlock()
}

// SchedStats are scheduler observability counters: how much work the event
// core did and how much of it the same-time fast paths absorbed. They are
// measurement only — no simulation result depends on them.
type SchedStats struct {
	Events        int64 // scheduler events dispatched
	HeapPushes    int64 // events that paid a heap sift
	LanePushes    int64 // events absorbed by the same-time FIFO lane (O(1))
	RingPushes    int64 // events absorbed by the near-time calendar ring (O(1))
	RingOverflows int64 // future events past the ring window that fell back to the heap
	FusedHops     int64 // zero-delay hardware hops walked inline, no event at all
	HeapPeak      int   // high-water mark of the heap (pending future events)
	RingPeak      int   // high-water mark of the calendar ring's pending entries
}

// LaneHitRate is the fraction of scheduled events that bypassed the heap
// (same-time lane or near-time ring).
func (s SchedStats) LaneHitRate() float64 {
	if total := s.HeapPushes + s.LanePushes + s.RingPushes; total > 0 {
		return float64(s.LanePushes+s.RingPushes) / float64(total)
	}
	return 0
}

// FusedHopsPerEvent is how many hardware hops rode along per scheduler
// event — the cut-through walk's amortization factor.
func (s SchedStats) FusedHopsPerEvent() float64 {
	if s.Events > 0 {
		return float64(s.FusedHops) / float64(s.Events)
	}
	return 0
}

// String renders the counters in the one-line form the CLI surfaces
// (`fastnet exp -v`, `fastnet soak -v`) print.
func (s SchedStats) String() string {
	return fmt.Sprintf("events=%d fused-hops=%d (%.2f/event) pushes(heap=%d lane=%d ring=%d) heap-bypass=%.1f%% ring-overflows=%d peaks(heap=%d ring=%d)",
		s.Events, s.FusedHops, s.FusedHopsPerEvent(),
		s.HeapPushes, s.LanePushes, s.RingPushes,
		100*s.LaneHitRate(), s.RingOverflows, s.HeapPeak, s.RingPeak)
}

// add accumulates o into s (peaks by max).
func (s *SchedStats) add(o SchedStats) {
	s.Events += o.Events
	s.HeapPushes += o.HeapPushes
	s.LanePushes += o.LanePushes
	s.RingPushes += o.RingPushes
	s.RingOverflows += o.RingOverflows
	s.FusedHops += o.FusedHops
	s.HeapPeak = max(s.HeapPeak, o.HeapPeak)
	s.RingPeak = max(s.RingPeak, o.RingPeak)
}

// SchedTotals is a caller-owned sum of SchedStats over every network built
// with its Sink option — how a caller observes the networks a driver builds
// internally (`fastnet exp -v`). A network adds what it has counted since it
// last did when Run returns and when its SchedStats are read — not per
// RunUntil, which epoch and open-loop drivers call once per arrival. Safe for
// networks running on different goroutines.
type SchedTotals struct {
	mu  sync.Mutex
	sum SchedStats
}

// Sink is the option that points a network at t.
func (t *SchedTotals) Sink() Option { return func(cf *config) { cf.totals = t } }

// Stats returns the sum so far (counters added, peaks by max).
func (t *SchedTotals) Stats() SchedStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum
}
