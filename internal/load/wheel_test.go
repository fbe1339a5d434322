package load

import (
	"math/rand"
	"sort"
	"testing"

	"fastnet/internal/core"
)

// drainAll pops every pending entry in nondecreasing t order, one instant
// at a time (so the hand stops at the last entry, as the engine's drain
// leaves it).
func drainAll(w *wheel, fn func(wheelEntry)) {
	for t := w.next(); t >= 0; t = w.next() {
		w.popUntil(t, fn)
	}
}

// drainTimes pops everything and returns the expiry times in pop order.
func drainTimes(w *wheel) []core.Time {
	var got []core.Time
	drainAll(w, func(e wheelEntry) { got = append(got, e.t) })
	return got
}

// TestWheelOrder inserts entries at ring-start, doubled-ring and past-the-cap
// distances in scrambled order and checks the calendar pops them in
// nondecreasing time order — the heap-replacement contract.
func TestWheelOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newWheel(0)
	var want []core.Time
	for i := 0; i < 5000; i++ {
		var d core.Time
		switch i % 3 {
		case 0:
			d = 1 + core.Time(rng.Intn(minTimerSpan-1)) // initial ring
		case 1:
			d = minTimerSpan + core.Time(rng.Intn(maxTimerSpan-minTimerSpan)) // doubled ring
		default:
			d = maxTimerSpan + core.Time(rng.Intn(1_000_000)) // far heap
		}
		w.add(d, int32(i), 0)
		want = append(want, d)
	}
	if len(w.slots) != maxTimerSpan {
		t.Fatalf("ring span %d after adds up to the cap, want %d", len(w.slots), maxTimerSpan)
	}
	got := drainTimes(w)
	if len(got) != len(want) {
		t.Fatalf("popped %d entries, inserted %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("pop order violated at %d: %d after %d", i, got[i], got[i-1])
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: popped t=%d, want %d", i, got[i], want[i])
		}
	}
	if w.pending != 0 {
		t.Fatalf("pending=%d after drain", w.pending)
	}
}

// TestWheelInterleaved mixes adds and popUntil calls (the engine's usage
// pattern: new deadlines appear while older ones expire) and checks every
// entry expires exactly once, in order, never past its deadline, and that a
// warm calendar stops growing its node slab.
func TestWheelInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := newWheel(0)
	expired := make(map[int32]core.Time)
	var lastT core.Time
	id := int32(0)
	inserted := make(map[int32]core.Time)
	slab := 0
	for round := 0; round < 200; round++ {
		if round == 100 {
			slab = cap(w.nodes)
		}
		for k := 0; k < 20; k++ {
			d := w.cur + 1 + core.Time(rng.Intn(3000))
			w.add(d, id, 0)
			inserted[id] = d
			id++
		}
		deadline := w.cur + core.Time(rng.Intn(1500))
		w.popUntil(deadline, func(e wheelEntry) {
			if e.t > deadline {
				t.Fatalf("expired t=%d past deadline %d", e.t, deadline)
			}
			if e.t < lastT {
				t.Fatalf("order violated: %d after %d", e.t, lastT)
			}
			lastT = e.t
			if _, dup := expired[e.idx]; dup {
				t.Fatalf("entry %d expired twice", e.idx)
			}
			expired[e.idx] = e.t
		})
	}
	if cap(w.nodes) > 2*slab {
		t.Fatalf("node slab grew from %d to %d in steady state: the free list is not reused", slab, cap(w.nodes))
	}
	drainAll(w, func(e wheelEntry) {
		if _, dup := expired[e.idx]; dup {
			t.Fatalf("entry %d expired twice", e.idx)
		}
		expired[e.idx] = e.t
	})
	if len(expired) != int(id) {
		t.Fatalf("expired %d of %d entries", len(expired), id)
	}
	for idx, at := range expired {
		if want := inserted[idx]; at != want {
			t.Fatalf("entry %d expired at %d, scheduled for %d", idx, at, want)
		}
	}
}

// TestWheelSparseJump checks that entries far apart — in the initial ring,
// in a doubled ring and in the far heap — all surface, in order, without the
// calendar stepping tick by tick.
func TestWheelSparseJump(t *testing.T) {
	w := newWheel(0)
	w.add(3, 1, 0)
	w.add(60_000, 2, 0)
	w.add(5_000_000, 3, 0) // past the cap: far heap
	got := drainTimes(w)
	want := []core.Time{3, 60_000, 5_000_000}
	if len(got) != 3 {
		t.Fatalf("popped %d entries, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: t=%d, want %d", i, got[i], want[i])
		}
	}
}

// TestWheelPastClamp: entries scheduled at or before cur fire at cur+1,
// never silently vanish.
func TestWheelPastClamp(t *testing.T) {
	w := newWheel(100)
	w.add(50, 1, 0)
	got := drainTimes(w)
	if len(got) != 1 || got[0] != 101 {
		t.Fatalf("past entry popped as %v, want [101]", got)
	}
}

// TestWheelModel drives random add / next / popUntil / drain sequences
// against a sorted-slice oracle. The distance mix keeps the initial ring, its
// doublings and the far heap populated, so the run covers adds behind the
// current earliest, slots moved whole by a doubling, heap entries the hand
// has since come within the ring's reach of, and ring and heap entries due
// at one instant. Some popUntil callbacks add, as the engine's never do: each
// add lands past the ring's span, so the doubling happens while a detached
// slot is being expired.
func TestWheelModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWheel(core.Time(rng.Intn(1000)))
		var oracle []wheelEntry // pending, unsorted
		next := func() core.Time {
			m := core.Time(-1)
			for _, e := range oracle {
				if m < 0 || e.t < m {
					m = e.t
				}
			}
			return m
		}
		byTimeIdx := func(es []wheelEntry) {
			sort.Slice(es, func(i, j int) bool {
				if es[i].t != es[j].t {
					return es[i].t < es[j].t
				}
				return es[i].idx < es[j].idx
			})
		}
		// pop removes and returns the oracle's entries with t <= deadline.
		pop := func(deadline core.Time) []wheelEntry {
			var due, rest []wheelEntry
			for _, e := range oracle {
				if e.t <= deadline {
					due = append(due, e)
				} else {
					rest = append(rest, e)
				}
			}
			oracle = rest
			return due
		}
		// check: the calendar popped exactly the oracle's entries (those its
		// callbacks added and expired in the same call included), in
		// nondecreasing time order (order within one instant is the
		// calendar's own).
		check := func(step int, got, want []wheelEntry) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: popped %d entries, oracle %d", seed, step, len(got), len(want))
			}
			for i := 1; i < len(got); i++ {
				if got[i].t < got[i-1].t {
					t.Fatalf("seed %d step %d: pop order violated at %d: %d after %d", seed, step, i, got[i].t, got[i-1].t)
				}
			}
			byTimeIdx(got)
			byTimeIdx(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d pop %d: got %+v, oracle %+v", seed, step, i, got[i], want[i])
				}
			}
		}
		id := int32(0)
		// add schedules one entry at cur+d on both sides.
		add := func(d core.Time, gen uint32) {
			at := w.cur + d // d == 0 exercises the clamp to cur+1
			w.add(at, id, gen)
			if at <= w.cur {
				at = w.cur + 1
			}
			oracle = append(oracle, wheelEntry{at, id, gen})
			id++
		}
		// Every 500 steps the calendar is drained and rebuilt at the minimum
		// span; in alternate epochs adds stay near, so the ring is still
		// small when a callback's add makes it double.
		grown, sameInstant := 0, 0
		kinds := 5
		for step := 0; step < 4000; step++ {
			if step%500 == 0 {
				var got []wheelEntry
				drainAll(w, func(e wheelEntry) { got = append(got, e) })
				check(step, got, pop(1<<62))
				w = newWheel(w.cur)
				kinds = 7 - kinds // 2 (near) and 5 (every distance) in turn
			}
			switch op := rng.Intn(10); {
			case op < 6:
				switch rng.Intn(kinds) {
				case 0:
					add(1+core.Time(rng.Intn(minTimerSpan)), uint32(step))
				case 1:
					add(core.Time(rng.Intn(4*minTimerSpan)), uint32(step))
				case 2:
					add(core.Time(rng.Intn(maxTimerSpan+minTimerSpan)), uint32(step))
				case 3:
					add(maxTimerSpan-2+core.Time(rng.Intn(3*maxTimerSpan)), uint32(step))
				default:
					// An instant some pending heap entry is due at, so ring
					// and heap share it once the hand comes within reach.
					if len(w.far) > 0 {
						e := w.far[rng.Intn(len(w.far))]
						if e.t-w.cur < maxTimerSpan {
							sameInstant++
						}
						add(e.t-w.cur, uint32(step))
					}
				}
			case op < 9:
				var deadline core.Time
				switch rng.Intn(3) {
				case 0:
					deadline = w.cur + core.Time(rng.Intn(2*minTimerSpan))
				case 1:
					deadline = w.cur + core.Time(rng.Intn(maxTimerSpan))
				default:
					if deadline = next(); deadline < 0 {
						deadline = w.cur
					}
				}
				var got []wheelEntry
				w.popUntil(deadline, func(e wheelEntry) {
					got = append(got, e)
					if rng.Intn(8) == 0 {
						span := len(w.slots)
						add(core.Time(span+rng.Intn(span)), uint32(step)|1<<31)
						if len(w.slots) > span {
							grown++
						}
					}
				})
				check(step, got, pop(deadline))
				if w.cur < deadline {
					t.Fatalf("seed %d step %d: hand at %d after popUntil(%d)", seed, step, w.cur, deadline)
				}
			default:
				if rng.Intn(40) == 0 {
					var got []wheelEntry
					drainAll(w, func(e wheelEntry) { got = append(got, e) })
					check(step, got, pop(1<<62))
				}
			}
			if got, want := w.next(), next(); got != want {
				t.Fatalf("seed %d step %d: next()=%d, oracle %d (cur=%d)", seed, step, got, want, w.cur)
			}
			if w.pending != len(oracle) {
				t.Fatalf("seed %d step %d: pending=%d, oracle %d", seed, step, w.pending, len(oracle))
			}
		}
		if grown == 0 || sameInstant == 0 {
			t.Fatalf("seed %d: %d doublings from a callback, %d ring adds at a heap entry's instant; want both > 0", seed, grown, sameInstant)
		}
	}
}

// TestWheelOverflowOvertaken: a far-heap entry the hand has since come
// close to must pop before a later ring entry added after the hand moved,
// and together with a ring entry added for its own instant.
func TestWheelOverflowOvertaken(t *testing.T) {
	w := newWheel(0)
	w.add(70_000, 1, 0) // past the cap: far heap
	w.popUntil(69_990, func(wheelEntry) { t.Fatal("nothing is due yet") })
	w.add(70_003, 2, 0) // ring, behind the heap entry
	w.add(70_000, 3, 0) // ring, at the heap entry's instant
	got := drainTimes(w)
	if len(got) != 3 || got[0] != 70_000 || got[1] != 70_000 || got[2] != 70_003 {
		t.Fatalf("popped %v, want [70000 70000 70003]", got)
	}
}
