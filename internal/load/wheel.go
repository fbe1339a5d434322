package load

import (
	"math/bits"

	"fastnet/internal/core"
)

// Hierarchical timing wheel for call-holding times and admission timers.
// Two wheel levels plus an overflow tier:
//
//   - fine: 256 one-tick slots covering (cur, cur+256);
//   - coarse: 256 slots of 256 ticks covering up to the horizon;
//   - over: everything at distance >= wheelHorizon, re-bucketed as soon as
//     the hand comes within the horizon of its earliest entry.
//
// The insert horizon is wheelSpan - wheelSlots rather than wheelSpan: the
// one-block margin guarantees every coarse slot holds entries of a single
// 256-tick block (two blocks one wheel-turn apart can never be pending in
// one slot at once), so a cascade moves a whole slot without filtering.
//
// next() is a pure peek (cached, invalidated by pops) costing two bitmap
// scans: every occupied coarse slot carries the minimum of its entries in
// coarseMin (lowered by add, dead once locate cascades the slot), so the
// peek never walks entries. The clock hand cur only advances inside
// popUntil, and never past the entry being popped or the caller's deadline.
// That asymmetry is load-bearing — the engine peeks every loop iteration
// while new deadlines keep arriving behind the earliest pending one, and an
// eagerly advanced hand would clamp them into the past.
//
// Ordering argument (see docs/PERF.md): all fine-resident entries lie in
// (cur, cur+256), where each slot index corresponds to exactly one absolute
// time, so a bitmap scan in slot order from cur+1 through the end of cur's
// block visits times in increasing order; entries of later blocks are either
// in fine slots below the scan window or still coarse/overflow-resident, and
// locate() advances cur block-by-block (first pulling in any overflow the
// hand is within the horizon of, then cascading the block's coarse slot), so
// no entry is ever visited late. Hence popUntil drains in nondecreasing time
// order.
const (
	wheelBits    = 8
	wheelSlots   = 1 << wheelBits          // 256 fine slots, 1 tick each
	wheelSpan    = wheelSlots * wheelSlots // coarse level reach: 65536 ticks
	wheelHorizon = wheelSpan - wheelSlots  // insert threshold (single-block slots)
	wheelMask    = core.Time(wheelSlots - 1)
)

// wheelEntry schedules pool record idx at time t; gen guards against stale
// entries (lazy cancellation: the pool bumps a record's generation when it
// is freed, so entries of a previous life no longer match).
type wheelEntry struct {
	t   core.Time
	idx int32
	gen uint32
}

type wheel struct {
	cur       core.Time // all pending entries have t > cur
	pending   int
	fine      [wheelSlots][]wheelEntry
	coarse    [wheelSlots][]wheelEntry
	fineBm    wheelBitmap
	corseBm   wheelBitmap
	coarseMin [wheelSlots]core.Time // earliest entry per coarse slot; valid while its bit is set
	over      []wheelEntry
	overMin   core.Time    // min overflow entry time, -1 when empty
	spare     []wheelEntry // reused batch buffer for popUntil
	peekT     core.Time    // cached earliest pending time
	peekOK    bool         // peekT valid
}

func newWheel(start core.Time) *wheel {
	return &wheel{cur: start, overMin: -1, peekT: -1, peekOK: true}
}

// add schedules (idx, gen) at time t (clamped to cur+1 if not in the
// future). Amortized O(1): each entry is appended at most three times
// (overflow, coarse, fine) over its life.
func (w *wheel) add(t core.Time, idx int32, gen uint32) {
	if t <= w.cur {
		t = w.cur + 1
	}
	w.pending++
	switch d := t - w.cur; {
	case d < wheelSlots:
		s := int(t & wheelMask)
		w.fine[s] = append(w.fine[s], wheelEntry{t, idx, gen})
		w.fineBm.set(s)
	case d < wheelHorizon:
		s := int((t >> wheelBits) & wheelMask)
		if !w.corseBm.has(s) || t < w.coarseMin[s] {
			w.coarseMin[s] = t
		}
		w.coarse[s] = append(w.coarse[s], wheelEntry{t, idx, gen})
		w.corseBm.set(s)
	default:
		w.over = append(w.over, wheelEntry{t, idx, gen})
		if w.overMin < 0 || t < w.overMin {
			w.overMin = t
		}
	}
	if w.peekOK && (w.peekT < 0 || t < w.peekT) {
		w.peekT = t
	}
}

// next returns the earliest pending expiry time, or -1 when the wheel is
// empty. Pure peek: the clock hand does not move, so entries added behind
// the current earliest (but after cur) remain schedulable.
func (w *wheel) next() core.Time {
	if w.pending == 0 {
		return -1
	}
	if !w.peekOK {
		w.peekT = w.peekCompute()
		w.peekOK = true
	}
	return w.peekT
}

// wheelBitmap is the slot-occupancy bitmap of one wheel level.
type wheelBitmap [wheelSlots / 64]uint64

func (b *wheelBitmap) set(s int)      { b[s>>6] |= 1 << (s & 63) }
func (b *wheelBitmap) clear(s int)    { b[s>>6] &^= 1 << (s & 63) }
func (b *wheelBitmap) has(s int) bool { return b[s>>6]&(1<<(s&63)) != 0 }

// after returns how many slots past from (1..wheelSlots, wrapping, so
// wheelSlots means from itself) the nearest occupied slot lies, or -1 on an
// empty bitmap: at most five word probes.
func (b *wheelBitmap) after(from int) int {
	for k := 1; k <= wheelSlots; {
		s := (from + k) & (wheelSlots - 1)
		if word := b[s>>6] >> (s & 63); word != 0 {
			return k + bits.TrailingZeros64(word)
		}
		k += 64 - s&63
	}
	return -1
}

// peekCompute finds the earliest pending time from the two occupancy bitmaps
// and the overflow minimum, without touching an entry.
func (w *wheel) peekCompute() core.Time {
	best := w.overMin
	consider := func(t core.Time) {
		if best < 0 || t < best {
			best = t
		}
	}
	// Fine tier: entries lie in (cur, cur+256), one absolute time per slot, so
	// slot distance from cur's slot is time distance from cur.
	if k := w.fineBm.after(int(w.cur & wheelMask)); k > 0 {
		consider(w.cur + core.Time(k))
	}
	// Coarse tier: blocks are disjoint increasing time ranges in wrap order
	// from cur's own block (still coarse-resident when popUntil parked the
	// hand inside it), so the first occupied slot holds the coarse minimum.
	cs := int((w.cur >> wheelBits) & wheelMask)
	if k := w.corseBm.after(cs - 1); k > 0 {
		consider(w.coarseMin[(cs-1+k)&(wheelSlots-1)])
	}
	return best
}

// locate advances cur to just before the earliest pending entry (cascading
// coarse slots and re-bucketing the overflow along the way) and returns
// that entry's time with its fine slot resident. Only popUntil calls it, so
// the hand never outruns a pop — jumps target the block containing the
// minimum entry, hence cur stays strictly below every pending time.
func (w *wheel) locate() core.Time {
	for {
		// Overflow entries the hand has come within the horizon of re-enter
		// the wheel levels before any scan, so the levels always hold every
		// entry earlier than the overflow's minimum.
		if w.overMin >= 0 && w.overMin-w.cur < wheelHorizon {
			w.rebucketOver()
		}
		start := w.cur + 1
		base := start &^ wheelMask
		// Cascade the coarse slot of start's block: afterwards every entry
		// in (cur, base+256) is fine-resident.
		cs := int((base >> wheelBits) & wheelMask)
		if w.corseBm.has(cs) {
			w.corseBm.clear(cs)
			slot := w.coarse[cs]
			for _, e := range slot {
				s := int(e.t & wheelMask)
				w.fine[s] = append(w.fine[s], e)
				w.fineBm.set(s)
			}
			w.coarse[cs] = slot[:0]
		}
		// The nearest occupied fine slot at or after start's: inside this
		// block it is the answer (slot order = time order).
		lo := int(start & wheelMask)
		k := w.fineBm.after(lo - 1)
		if s := lo - 1 + k; k > 0 && s < wheelSlots {
			return base + core.Time(s)
		}
		// Nothing left in this block: jump cur to just before the earliest
		// block that still holds work. Fine entries below the scan window
		// belong to the immediately following block; coarse slot cs+c (wrap)
		// holds block base + c*256, unique within the horizon.
		jump := core.Time(-1)
		if k > 0 {
			jump = base + wheelSlots
		}
		if c := w.corseBm.after(cs); c > 0 && (jump < 0 || base+core.Time(c)<<wheelBits < jump) {
			jump = base + core.Time(c)<<wheelBits
		}
		if jump >= 0 {
			w.cur = jump - 1
			continue
		}
		// Only the overflow holds entries: jump to just before the earliest
		// (skipping no work) and let the next pass pull it into the levels.
		w.cur = w.overMin - 1
	}
}

// rebucketOver re-adds the overflow against the current hand, pulling the
// entries now inside the horizon — at least the minimum — into the levels.
func (w *wheel) rebucketOver() {
	old := w.over
	w.over = nil
	w.overMin = -1
	w.pending -= len(old)
	for _, e := range old {
		w.add(e.t, e.idx, e.gen)
	}
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
		w.locate()
		s := int(t & wheelMask)
		// Every entry in a fine slot shares the same t (one absolute time
		// per slot within the (cur, cur+256) window).
		batch := w.fine[s]
		w.fine[s] = w.spare[:0]
		w.fineBm.clear(s)
		w.pending -= len(batch)
		w.cur = t
		w.peekOK = false
		for i := range batch {
			fn(batch[i])
		}
		w.spare = batch[:0]
	}
	if deadline > w.cur {
		w.cur = deadline
	}
}

// drainAll drains every pending entry in nondecreasing t order.
func (w *wheel) drainAll(fn func(wheelEntry)) {
	for w.pending > 0 {
		w.popUntil(w.next(), fn)
	}
}
