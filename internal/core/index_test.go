package core

import (
	"math/rand"
	"testing"
)

// TestNodeIndexMatchesMap drives a NodeIndex over an append-only store the
// way its two callers do — new nodes appended, known ones re-appended with
// their old position vacated (None) — and checks every lookup against a map:
// IDs up to 1<<28 beside a small dense range that keeps re-appending, misses,
// and None while the store holds vacated positions. The index must regrow
// several times, hold exactly one slot per node (a re-append re-points, it
// adds none) and stay at load <= 1/2.
func TestNodeIndexMatchesMap(t *testing.T) {
	var (
		x     NodeIndex
		store []NodeID
		want  = map[NodeID]int32{}
	)
	key := func(p int32) NodeID { return store[p] }
	rng := rand.New(rand.NewSource(1))
	sizes := map[int]bool{}
	check := func(step int) {
		if len(store) <= ScanMax {
			if x.Slots() != 0 {
				t.Fatalf("step %d: %d slots for a store of %d", step, x.Slots(), len(store))
			}
			return
		}
		held := 0
		for _, p := range x.slots {
			if p >= 0 {
				held++
			}
		}
		if held != len(want) || 2*held > x.Slots() {
			t.Fatalf("step %d: %d slots held of %d for %d nodes, want one each at load <= 1/2", step, held, x.Slots(), len(want))
		}
		for u, w := range want {
			if p, ok := x.Find(u, key); !ok || p != w {
				t.Fatalf("step %d: Find(%d) = %d, %v; want %d", step, u, p, ok, w)
			}
		}
		for _, u := range []NodeID{None, -2, 1 << 28, NodeID(rng.Intn(1 << 28)), NodeID(rng.Intn(256))} {
			_, held := want[u]
			if p, ok := x.Find(u, key); ok != held || ok && p != want[u] {
				t.Fatalf("step %d: Find(%d) = %d, %v; held %v", step, u, p, ok, held)
			}
		}
	}
	vacated := false
	for step := 0; step < 3000; step++ {
		u := NodeID(rng.Intn(256))
		if rng.Intn(2) == 0 {
			u = NodeID(rng.Intn(1<<28 + 1))
		}
		p := int32(len(store))
		store = append(store, u)
		if from, ok := want[u]; ok {
			store[from] = None
			vacated = true
			x.Move(u, from, p, key)
		} else {
			x.Add(p, key)
		}
		want[u] = p
		sizes[x.Slots()] = true
		if step < 100 || step%97 == 0 {
			check(step)
		}
	}
	check(3000)
	if !vacated || len(sizes) < 6 {
		t.Fatalf("vacated %v, %d index sizes; want re-appends and several regrows", vacated, len(sizes))
	}
}
