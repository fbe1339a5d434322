package load

import (
	"container/heap"
	"math/bits"

	"fastnet/internal/core"
)

// The call-timer calendar: call-holding times and admission timers. It has
// the event spine's shape (sim's spine.place and spine.grow):
//
//   - one slot per tick over (cur, cur+span), each slot a list of the timers
//     of its one instant, and an occupancy bitmap scanned a word at a time;
//   - a span that starts at minTimerSpan and doubles whenever a timer lands
//     past it, up to maxTimerSpan; a doubling moves every slot whole, since
//     distinct instants in (cur, cur+span) stay distinct modulo twice span;
//   - a binary heap (far) for any timer maxTimerSpan or more ticks out. Heap
//     timers never move into the ring: next takes the earlier of the ring's
//     first instant and the heap's minimum, and popUntil expires both.
//
// The slot lists thread through one node slab with a free list, so a warm
// calendar allocates nothing. The clock hand cur only advances inside
// popUntil, and never past the timer being popped or the caller's deadline:
// next is a pure peek, because the engine peeks while new deadlines keep
// arriving behind the earliest pending one, and an eagerly advanced hand would
// clamp them into the past.
//
// Timers of one instant expire in no fixed order (a slot is a stack; heap
// timers follow ring timers), and no output can tell. At one instant the
// engine's expire only decrements endpoint counters, counts Dropped and
// pushes records onto the pool's free list: the first two commute, and the
// free list's order decides only which record the next arrival reuses, which
// no ledger field, packet or timer time depends on. A record's own two timers meeting at one
// instant settle it once either way: whichever expires first finds it
// delivered with w.t == r.end and completes it, and the other then misses on
// gen (the record was freed) or on state (stDone).
const (
	minTimerSpan = 256
	maxTimerSpan = 1 << 16
)

// wheelEntry schedules pool record idx at time t; gen guards against stale
// entries (lazy cancellation: the pool bumps a record's generation when it
// is freed, so entries of a previous life no longer match).
type wheelEntry struct {
	t   core.Time
	idx int32
	gen uint32
}

// timerNode is one ring timer: its entry and the next node of its slot list
// (or of the free list); node 0 is the nil link.
type timerNode struct {
	wheelEntry
	next int32
}

type wheel struct {
	cur     core.Time   // all pending entries have t > cur
	pending int         // entries in the ring and the heap
	slots   []int32     // head node of each slot's list, 0 when empty
	bits    []uint64    // bit s set iff slots[s] != 0
	mask    core.Time   // len(slots) - 1, a power of two less one
	nodes   []timerNode // the slab every slot list threads through
	free    int32       // head of the node free list, 0 when empty
	far     farHeap     // entries maxTimerSpan or more ticks out at add
}

func newWheel(start core.Time) *wheel {
	return &wheel{
		cur:   start,
		slots: make([]int32, minTimerSpan),
		bits:  make([]uint64, minTimerSpan/64),
		mask:  minTimerSpan - 1,
		nodes: make([]timerNode, 1),
	}
}

// add schedules (idx, gen) at time t (clamped to cur+1 if not in the
// future), doubling the ring until t fits unless t lies past the cap.
func (w *wheel) add(t core.Time, idx int32, gen uint32) {
	if t <= w.cur {
		t = w.cur + 1
	}
	w.pending++
	if t-w.cur >= maxTimerSpan {
		heap.Push(&w.far, wheelEntry{t, idx, gen})
		return
	}
	for t-w.cur > w.mask {
		w.grow()
	}
	n := w.free
	if n == 0 {
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, timerNode{})
	} else {
		w.free = w.nodes[n].next
	}
	s := t & w.mask
	w.nodes[n] = timerNode{wheelEntry{t, idx, gen}, w.slots[s]}
	w.slots[s] = n
	w.bits[s>>6] |= 1 << (s & 63)
}

// grow doubles the span, moving each pending slot's list whole to the slot
// its instant owns in the wider ring.
func (w *wheel) grow() {
	old := w.slots
	w.slots = make([]int32, 2*len(old))
	w.bits = make([]uint64, len(w.slots)/64)
	w.mask = core.Time(len(w.slots) - 1)
	for _, n := range old {
		if n != 0 {
			s := w.nodes[n].t & w.mask
			w.slots[s] = n
			w.bits[s>>6] |= 1 << (s & 63)
		}
	}
}

// next returns the earliest pending expiry time, or -1 when the calendar is
// empty. Slot order from cur+1, wrapping once, is instant order, so the
// first set bit of a word-at-a-time scan is the ring's earliest instant.
func (w *wheel) next() core.Time {
	t := core.Time(-1)
	if w.pending > len(w.far) {
		for dt := core.Time(1); dt <= w.mask+1; {
			s := (w.cur + dt) & w.mask
			if word := w.bits[s>>6] >> (s & 63); word != 0 {
				t = w.cur + dt + core.Time(bits.TrailingZeros64(word))
				break
			}
			dt += 64 - s&63
		}
	}
	if len(w.far) > 0 && (t < 0 || w.far[0].t < t) {
		t = w.far[0].t
	}
	return t
}

// popUntil drains every entry with t <= deadline, in nondecreasing t order,
// invoking fn on each, and leaves cur = max(cur, deadline). fn may call add
// (new entries land strictly after the entry being expired). The caller
// must guarantee no future add precedes deadline — the engine's discipline
// (deadline <= virtual now, adds > virtual now) does.
func (w *wheel) popUntil(deadline core.Time, fn func(wheelEntry)) {
	for {
		t := w.next()
		if t < 0 || t > deadline {
			break
		}
		w.cur = t
		// t is the earliest pending instant, so its slot holds no other one.
		// The list is detached before fn runs: an add may grow the ring.
		s := t & w.mask
		n := w.slots[s]
		w.slots[s] = 0
		w.bits[s>>6] &^= 1 << (s & 63)
		for n != 0 {
			node := w.nodes[n]
			w.nodes[n].next, w.free = w.free, n
			w.pending--
			fn(node.wheelEntry)
			n = node.next
		}
		for len(w.far) > 0 && w.far[0].t == t {
			w.pending--
			fn(heap.Pop(&w.far).(wheelEntry))
		}
	}
	if deadline > w.cur {
		w.cur = deadline
	}
}

// farHeap is a container/heap min-heap of entries on t.
type farHeap []wheelEntry

func (h farHeap) Len() int           { return len(h) }
func (h farHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h farHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *farHeap) Push(x any)        { *h = append(*h, x.(wheelEntry)) }
func (h *farHeap) Pop() any {
	e := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return e
}
