package faults

import (
	"math/rand"

	"fastnet/internal/core"
)

// nodeStall is one scheduled NCU stall: node Node's software delay P is
// inflated by Extra per activation for a window of length Window (virtual
// time on the discrete-event runtime, activations on the goroutine runtime).
// Stalls are the node-side gray failure — a GC pause, a page fault storm, a
// saturated NCU — the sibling of core.MsgFaults.Slowdown on links: the node
// never crashes and no link ever goes down, it is just slow for a while.
type nodeStall struct {
	Node   core.NodeID
	Window core.Time
	Extra  core.Time
}

// stalls plans seeded NCU-stall schedules: each epoch, PerEpoch distinct
// live nodes (nodes with at least one up link — a crashed node's slowness is
// unobservable) are drawn from the epoch rng and stalled for Window with
// Extra inflation. Like the link-fault Generators, a plan is a pure function
// of (epoch, ground truth, rng state), so soak runs replay bit for bit on
// the discrete-event runtime.
type stalls struct {
	PerEpoch int
	Window   core.Time // default 8
	Extra    core.Time // default Window
}

// plan draws this epoch's stall schedule.
func (s stalls) plan(epoch int, st *state, rng *rand.Rand) []nodeStall {
	if s.PerEpoch <= 0 {
		return nil
	}
	window := s.Window
	if window <= 0 {
		window = 8
	}
	extra := s.Extra
	if extra <= 0 {
		extra = window
	}
	live := st.liveGraph()
	var pool []core.NodeID
	for v := 0; v < live.N(); v++ {
		if live.Degree(core.NodeID(v)) > 0 {
			pool = append(pool, core.NodeID(v))
		}
	}
	var out []nodeStall
	for i := 0; i < s.PerEpoch && len(pool) > 0; i++ {
		j := rng.Intn(len(pool))
		v := pool[j]
		pool = append(pool[:j], pool[j+1:]...)
		out = append(out, nodeStall{Node: v, Window: window, Extra: extra})
	}
	return out
}
