package faults

import (
	"math/rand"

	"fastnet/internal/core"
)

// stalled draws this epoch's NCU stalls, the node-side gray failure — a GC
// pause, a page fault storm, a saturated NCU — and the sibling of
// core.MsgFaults.Slowdown on links: the node never crashes and no link ever
// goes down, it is just slow for a while. It draws perEpoch distinct live
// nodes (nodes with at least one up link — a crashed node's slowness is
// unobservable) from the epoch rng, and nothing when perEpoch is 0; the driver
// inflates each one's software delay. Like the link-fault generators, a plan
// is a pure function of (ground truth, rng state), so soak runs replay bit
// for bit on the discrete-event runtime.
func stalled(perEpoch int, st *state, rng *rand.Rand) []core.NodeID {
	if perEpoch <= 0 {
		return nil
	}
	live := st.liveGraph()
	var pool []core.NodeID
	for v := 0; v < live.N(); v++ {
		if live.Degree(core.NodeID(v)) > 0 {
			pool = append(pool, core.NodeID(v))
		}
	}
	var out []core.NodeID
	for i := 0; i < perEpoch && len(pool) > 0; i++ {
		j := rng.Intn(len(pool))
		out = append(out, pool[j])
		pool = append(pool[:j], pool[j+1:]...)
	}
	return out
}
