package faults

import (
	"math/rand"
	"sync"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// generator plans the fault events for one churn epoch. Plan must be a pure
// function of (epoch, st, rng) — all randomness drawn from rng — so a soak
// run is reproducible from its seed. Generators may keep private pending
// state (e.g. heal schedules) because epochs are always planned in order.
type generator interface {
	Plan(epoch int, st *state, rng *rand.Rand) []event
}

// flaps downs PerEpoch random live links and brings each back up Len steps
// later in the same epoch, with down-steps spread over two instants.
type flaps struct {
	PerEpoch int
	Len      int // steps a flapped link stays down (>= 1)
}

// Plan implements generator.
func (f flaps) Plan(epoch int, st *state, rng *rand.Rand) []event {
	up := st.upEdges()
	var evs []event
	for i := 0; i < f.PerEpoch && len(up) > 0; i++ {
		j := rng.Intn(len(up))
		e := up[j]
		up = append(up[:j], up[j+1:]...)
		at := rng.Intn(2)
		evs = append(evs,
			event{Step: at, Kind: linkDown, U: e.U, V: e.V},
			event{Step: at + f.Len, Kind: linkUp, U: e.U, V: e.V},
		)
	}
	return evs
}

// partitions fails a correlated edge set every Every epochs: a random node
// subset S is cut off by downing every live edge crossing (S, V-S) at once,
// then the whole cut heals together Heal epochs later (Heal < Every keeps
// at most one partition outstanding).
type partitions struct {
	Every int // plan a new cut when epoch%Every == 0 (>= 1)
	Heal  int // epochs until the cut heals (>= 1)

	pending map[int][]graph.Edge // heal epoch -> cut edges
}

// Plan implements generator.
func (p *partitions) Plan(epoch int, st *state, rng *rand.Rand) []event {
	if p.pending == nil {
		p.pending = make(map[int][]graph.Edge)
	}
	var evs []event
	// Heal a cut scheduled for this epoch before planning a new one.
	for _, e := range p.pending[epoch] {
		evs = append(evs, event{Step: 0, Kind: linkUp, U: e.U, V: e.V})
	}
	delete(p.pending, epoch)
	// A graph of fewer than two nodes has no proper subset to cut off.
	if g := st.g; epoch%p.Every == 0 && g.N() >= 2 {
		// Random proper subset: size in [1, n-1].
		size := 1 + rng.Intn(g.N()-1)
		perm := rng.Perm(g.N())
		inS := make(map[core.NodeID]bool, size)
		for _, v := range perm[:size] {
			inS[core.NodeID(v)] = true
		}
		var cut []graph.Edge
		for _, e := range g.Edges() {
			if inS[e.U] != inS[e.V] && !st.edgeDown(e.U, e.V) {
				cut = append(cut, e.Canon())
				evs = append(evs, event{Step: 0, Kind: linkDown, U: e.U, V: e.V})
			}
		}
		if len(cut) > 0 {
			p.pending[epoch+p.Heal] = cut
		}
	}
	return evs
}

// churn crashes PerEpoch random live nodes and restores each Downtime
// epochs later.
type churn struct {
	PerEpoch int
	Downtime int // epochs a crashed node stays down (>= 1)

	pending map[int][]core.NodeID // restore epoch -> nodes
}

// Plan implements generator.
func (c *churn) Plan(epoch int, st *state, rng *rand.Rand) []event {
	if c.pending == nil {
		c.pending = make(map[int][]core.NodeID)
	}
	var evs []event
	for _, v := range c.pending[epoch] {
		evs = append(evs, event{Step: 0, Kind: restore, U: v})
	}
	delete(c.pending, epoch)
	var alive []core.NodeID
	for v := 0; v < st.g.N(); v++ {
		if !st.isCrashed(core.NodeID(v)) {
			alive = append(alive, core.NodeID(v))
		}
	}
	for i := 0; i < c.PerEpoch && len(alive) > 1; i++ {
		j := rng.Intn(len(alive))
		v := alive[j]
		alive = append(alive[:j], alive[j+1:]...)
		evs = append(evs, event{Step: 0, Kind: crash, U: v})
		c.pending[epoch+c.Downtime] = append(c.pending[epoch+c.Downtime], v)
	}
	return evs
}

// adversary is the trace-driven generator: its Witness (installed as the
// network's trace sink) watches deliveries, and each epoch the adversary
// fails the edge the protocol just used — the last delivery hop it saw —
// healing it again the next epoch. This is the "fail the tree edge just
// used" schedule: broadcasts that lean on a spanning structure keep losing
// exactly the branch they committed to.
type adversary struct {
	Witness *witness

	pending []graph.Edge // edges to heal next epoch
}

// Plan implements generator.
func (a *adversary) Plan(epoch int, st *state, rng *rand.Rand) []event {
	var evs []event
	for _, e := range a.pending {
		evs = append(evs, event{Step: 0, Kind: linkUp, U: e.U, V: e.V})
	}
	a.pending = nil
	if a.Witness == nil {
		return evs
	}
	from, to, ok := a.Witness.lastHop()
	if !ok {
		return evs
	}
	target, found := graph.Edge{}, false
	if st.g.HasEdge(from, to) && !st.edgeDown(from, to) {
		target, found = graph.Edge{U: from, V: to}.Canon(), true
	} else {
		// The observed hop is gone; fall back to any live edge at the
		// receiver so the adversary keeps pressure on the active region.
		for _, nb := range st.g.Neighbors(to) {
			if !st.edgeDown(to, nb) {
				target, found = graph.Edge{U: to, V: nb}.Canon(), true
				break
			}
		}
	}
	if found {
		evs = append(evs, event{Step: 0, Kind: linkDown, U: target.U, V: target.V})
		a.pending = append(a.pending, target)
	}
	return evs
}

// witness is a trace.Sink that remembers the most recent delivery hop; it
// feeds the Adversary generator. Trace events carry no sender, so the
// witness correlates each KindDeliver with its KindSend through the shared
// message ID. Safe for concurrent use (the goroutine runtime records trace
// events from many node goroutines).
type witness struct {
	mu      sync.Mutex
	senders map[int64]core.NodeID // msg ID -> sending node
	from    core.NodeID
	to      core.NodeID
	ok      bool
}

// Record implements trace.Sink.
func (w *witness) Record(ev trace.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch ev.Kind {
	case trace.KindSend:
		if w.senders == nil {
			w.senders = make(map[int64]core.NodeID)
		}
		w.senders[ev.Msg] = ev.Node
	case trace.KindDeliver:
		if from, seen := w.senders[ev.Msg]; seen {
			w.from, w.to, w.ok = from, ev.Node, true
		}
	}
}

// lastHop returns the (from, to) endpoints of the most recent delivery.
func (w *witness) lastHop() (from, to core.NodeID, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.from, w.to, w.ok
}

// reset drops the send correlation table (the last hop survives); the soak
// driver calls it between epochs to bound memory over long runs.
func (w *witness) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.senders = make(map[int64]core.NodeID)
}
