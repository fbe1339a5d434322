package core

import "math/bits"

// ScanMax is the store size up to which a caller of NodeIndex finds a node by
// scanning its store directly: below it the scan beats a probe, and the many
// small stores (a node's first records, an origin's first domain) never pay
// for an index. NodeIndex builds itself when the store passes it.
const ScanMax = 16

// NodeIndex maps node IDs to positions in a caller's store, for stores that
// only append: the topology database's records, an election origin's
// members. Each slot holds a position (-1: empty) and the key is read from
// the store through the caller's accessor, so an index costs 4 bytes a slot.
// The slots are open-addressed by Fibonacci hashing, whose top bits spread
// IDs in any stride, probed linearly and kept at load <= 1/2; nothing is
// deleted, so an index costs what its store holds, whatever the IDs.
//
// The caller keeps the scan below ScanMax, so that Find, which is only the
// probe, inlines into its lookup together with the accessor.
type NodeIndex struct {
	slots []int32
}

// fib is 2^32 divided by the golden ratio: Fibonacci hashing's multiplier.
const fib = 0x9E3779B1

// home is u's first probe.
func home(u NodeID, mask uint32) uint32 {
	return uint32(u) * fib >> bits.LeadingZeros32(mask)
}

// Find returns u's position, where key(p) is the node at position p. The
// index must be built (the store holds more than ScanMax positions). A
// negative ID is never found: no position holding one is indexed.
func (x *NodeIndex) Find(u NodeID, key func(int32) NodeID) (int32, bool) {
	mask := uint32(len(x.slots) - 1)
	// home(u, mask), written out: the call would take Find past the inlining
	// budget.
	for i := uint32(u) * fib >> bits.LeadingZeros32(mask); ; i = (i + 1) & mask {
		if p := x.slots[i]; p < 0 || key(p) == u {
			return p, p >= 0
		}
	}
}

// Add enters p, the newest position of a store of p+1, whose node is key(p)
// and is not yet indexed. Nothing is entered while the store holds ScanMax
// positions or fewer; the call that passes ScanMax builds the index, and a
// call that would fill more than half of it doubles it, each re-entering
// every position. A position whose key is negative (vacated) is skipped.
func (x *NodeIndex) Add(p int32, key func(int32) NodeID) {
	switch {
	case p < ScanMax:
	case 2*int(p+1) > len(x.slots):
		x.slots = make([]int32, max(2*len(x.slots), 4*ScanMax))
		for i := range x.slots {
			x.slots[i] = -1
		}
		for q := int32(0); q <= p; q++ {
			x.put(key(q), q)
		}
	default:
		x.put(key(p), p)
	}
}

// Move re-points u's slot from position from to to, the newest position of
// a store of to+1 that re-appended u's entry and vacated the old one; u must
// be indexed at from. Before the index is built it is Add(to).
func (x *NodeIndex) Move(u NodeID, from, to int32, key func(int32) NodeID) {
	if x.slots == nil {
		x.Add(to, key)
		return
	}
	mask := uint32(len(x.slots) - 1)
	i := home(u, mask)
	for x.slots[i] >= 0 && x.slots[i] != from {
		i = (i + 1) & mask
	}
	x.slots[i] = to
}

// put enters position p, holding u, into the first empty slot of u's probe.
func (x *NodeIndex) put(u NodeID, p int32) {
	if u < 0 {
		return
	}
	mask := uint32(len(x.slots) - 1)
	i := home(u, mask)
	for x.slots[i] >= 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = p
}

// Slots is the index's slot count: 0 until the store passes ScanMax.
func (x *NodeIndex) Slots() int { return len(x.slots) }
