package load

import (
	"math/rand"
	"sort"
	"testing"

	"fastnet/internal/core"
)

// drainTimes pops everything and returns the expiry times in pop order.
func drainTimes(w *wheel) []core.Time {
	var got []core.Time
	w.drainAll(func(e wheelEntry) { got = append(got, e.t) })
	return got
}

// TestWheelOrder inserts entries across all three tiers (fine, coarse,
// overflow) in scrambled order and checks the wheel pops them in
// nondecreasing time order — the heap-replacement contract.
func TestWheelOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newWheel(0)
	var want []core.Time
	for i := 0; i < 5000; i++ {
		var d core.Time
		switch i % 3 {
		case 0:
			d = 1 + core.Time(rng.Intn(wheelSlots-1)) // fine
		case 1:
			d = wheelSlots + core.Time(rng.Intn(wheelHorizon-wheelSlots)) // coarse
		default:
			d = wheelHorizon + core.Time(rng.Intn(1_000_000)) // overflow
		}
		w.add(d, int32(i), 0)
		want = append(want, d)
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
// entry expires exactly once, in order, never past its deadline.
func TestWheelInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := newWheel(0)
	expired := make(map[int32]core.Time)
	var lastT core.Time
	id := int32(0)
	inserted := make(map[int32]core.Time)
	for round := 0; round < 200; round++ {
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
	w.drainAll(func(e wheelEntry) {
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

// TestWheelSparseJump checks the block-jump path: two entries separated by
// a span much larger than the fine level must both surface without the
// wheel scanning tick by tick (correctness only; the jump's cost is a
// bitmap scan, exercised implicitly).
func TestWheelSparseJump(t *testing.T) {
	w := newWheel(0)
	w.add(3, 1, 0)
	w.add(60_000, 2, 0)
	w.add(5_000_000, 3, 0) // overflow tier
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

// TestWheelModel drives random add / next / popUntil / drainAll sequences
// against a sorted-slice oracle. The distance mix keeps all three tiers
// populated, so the run covers adds behind the current earliest, peeks served
// by a coarse slot's stored minimum (before and after that slot's neighbours
// cascade, and with the hand parked inside the slot's own block), and the
// overflow re-bucket.
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
		// check: the wheel popped exactly the oracle's entries, in
		// nondecreasing time order (order within one tick is the wheel's own:
		// entries that waited in a coarser tier follow direct fine adds).
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
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				var d core.Time
				switch rng.Intn(4) {
				case 0:
					d = 1 + core.Time(rng.Intn(wheelSlots))
				case 1:
					d = core.Time(rng.Intn(4 * wheelSlots))
				case 2:
					d = core.Time(rng.Intn(wheelHorizon + wheelSlots))
				default:
					d = wheelHorizon - 2 + core.Time(rng.Intn(3*wheelSpan))
				}
				at := w.cur + d // d == 0 exercises the clamp to cur+1
				w.add(at, id, uint32(step))
				if at <= w.cur {
					at = w.cur + 1
				}
				oracle = append(oracle, wheelEntry{at, id, uint32(step)})
				id++
			case op < 9:
				var deadline core.Time
				switch rng.Intn(3) {
				case 0:
					deadline = w.cur + core.Time(rng.Intn(2*wheelSlots))
				case 1:
					deadline = w.cur + core.Time(rng.Intn(wheelSpan))
				default:
					if deadline = next(); deadline < 0 {
						deadline = w.cur
					}
				}
				var got []wheelEntry
				w.popUntil(deadline, func(e wheelEntry) { got = append(got, e) })
				check(step, got, pop(deadline))
				if w.cur < deadline {
					t.Fatalf("seed %d step %d: hand at %d after popUntil(%d)", seed, step, w.cur, deadline)
				}
			default:
				if rng.Intn(40) == 0 {
					var got []wheelEntry
					w.drainAll(func(e wheelEntry) { got = append(got, e) })
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
	}
}

// TestWheelOverflowOvertaken: an overflow entry the hand has since come
// close to must pop before a later fine entry added after the hand moved
// (it used to stay parked in the overflow while the fine scan answered, and
// popUntil spun on the slot the peek named).
func TestWheelOverflowOvertaken(t *testing.T) {
	w := newWheel(0)
	w.add(70_000, 1, 0) // beyond the horizon: overflow
	w.popUntil(69_990, func(wheelEntry) { t.Fatal("nothing is due yet") })
	w.add(70_003, 2, 0) // fine, behind the overflow entry
	got := drainTimes(w)
	if len(got) != 2 || got[0] != 70_000 || got[1] != 70_003 {
		t.Fatalf("popped %v, want [70000 70003]", got)
	}
}
