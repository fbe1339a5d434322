// Package causal implements the appendix of the paper: classifying the
// messages of an execution into causal and non-causal ones (with respect to
// the output computed at a root node, via Lamport's happened-before
// relation) and extracting the last-causal-message spanning tree that proves
// Theorem 6 ("there exists a single tree-based algorithm which is worst-case
// optimal").
package causal

import (
	"errors"
	"fmt"
	"sort"

	"fastnet/internal/core"
	"fastnet/internal/trace"
)

// ErrIncomplete is returned when some node never sent a causal message, so
// no spanning tree exists (the execution did not exercise a globally
// sensitive input vector).
var ErrIncomplete = errors.New("causal: some node sent no causal message")

// message is one routed packet reconstructed from the trace.
type message struct {
	id         int64
	from       core.NodeID
	sentAt     int64
	sentAct    int64
	deliveries []delivery
}

type delivery struct {
	node core.NodeID
	at   int64
	act  int64
}

// Analysis is the result of classifying one execution's messages.
type Analysis struct {
	// Root is the output node ("node 1" in the paper).
	Root core.NodeID
	// Causal maps message ID to its causal status.
	Causal map[int64]bool
	// Messages is the total number of messages seen.
	Messages int
	// Parent is the extracted last-causal-message tree: for every node that
	// sent at least one causal message, the node that received its last
	// causal message.
	Parent map[core.NodeID]core.NodeID
}

// Analyze reconstructs messages from a trace and classifies them. The trace
// must come from a single run (trace.Buffer contents).
func Analyze(events []trace.Event, root core.NodeID) (*Analysis, error) {
	msgs := make(map[int64]*message)
	termination := int64(-1)
	for _, e := range events {
		switch e.Kind {
		case trace.KindSend:
			m, ok := msgs[e.Msg]
			if !ok {
				m = &message{id: e.Msg}
				msgs[e.Msg] = m
			}
			m.from = e.Node
			m.sentAt = e.Time
			m.sentAct = e.Act
		case trace.KindDeliver:
			m, ok := msgs[e.Msg]
			if !ok {
				m = &message{id: e.Msg}
				msgs[e.Msg] = m
			}
			m.deliveries = append(m.deliveries, delivery{node: e.Node, at: e.Time, act: e.Act})
			if e.Node == root && e.Time > termination {
				termination = e.Time
			}
		case trace.KindInject, trace.KindLinkEvent, trace.KindDrop:
			// Not messages (or dead ones).
		}
	}

	// Fixpoint by worklist: a message is causal if delivered to the root,
	// or delivered to some node at-or-before that node sent a causal
	// message (the same activation counts: a relay receives and forwards
	// within one activation). For each node the relevant quantity is the
	// LATEST causal send key; deliveries to it become causal monotonically
	// as that key grows, so one sorted pass per node suffices.
	type dref struct {
		m *message
		d delivery
	}
	perNode := make(map[core.NodeID][]dref)
	for _, m := range msgs {
		for _, d := range m.deliveries {
			perNode[d.node] = append(perNode[d.node], dref{m: m, d: d})
		}
	}
	for v := range perNode {
		ds := perNode[v]
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].d.at != ds[j].d.at {
				return ds[i].d.at < ds[j].d.at
			}
			return ds[i].d.act < ds[j].d.act
		})
	}
	type key struct{ at, act int64 }
	geq := func(a, b key) bool { return a.at > b.at || (a.at == b.at && a.act >= b.act) }

	causal := make(map[int64]bool, len(msgs))
	via := make(map[int64]core.NodeID, len(msgs))
	maxSend := make(map[core.NodeID]key)
	cursor := make(map[core.NodeID]int)
	var work []core.NodeID

	markCausal := func(m *message, to core.NodeID) {
		if causal[m.id] {
			return
		}
		causal[m.id] = true
		via[m.id] = to
		k := key{at: m.sentAt, act: m.sentAct}
		cur, ok := maxSend[m.from]
		if !ok || geq(k, cur) {
			maxSend[m.from] = k
			work = append(work, m.from)
		}
	}
	// Seed: everything delivered to the root is causal.
	for _, r := range perNode[root] {
		markCausal(r.m, root)
	}
	cursor[root] = len(perNode[root])
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if v == root {
			continue
		}
		ds := perNode[v]
		i := cursor[v]
		limit := maxSend[v]
		for i < len(ds) && geq(limit, key{at: ds[i].d.at, act: ds[i].d.act}) {
			markCausal(ds[i].m, v)
			i++
		}
		cursor[v] = i
	}

	parent := make(map[core.NodeID]core.NodeID)
	last := make(map[core.NodeID]*message)
	for _, m := range msgs {
		if !causal[m.id] {
			continue
		}
		prev, ok := last[m.from]
		if !ok || m.sentAt > prev.sentAt || (m.sentAt == prev.sentAt && m.sentAct > prev.sentAct) ||
			(m.sentAt == prev.sentAt && m.sentAct == prev.sentAct && m.id > prev.id) {
			last[m.from] = m
		}
	}
	for from, m := range last {
		parent[from] = via[m.id]
	}
	return &Analysis{
		Root:     root,
		Causal:   causal,
		Messages: len(msgs),
		Parent:   parent,
	}, nil
}

// CausalCount returns the number of causal messages.
func (a *Analysis) CausalCount() int {
	n := 0
	for _, c := range a.Causal {
		if c {
			n++
		}
	}
	return n
}

// SpanningTree validates Lemma A.3: the last-causal-message edges of all n
// nodes form a spanning tree rooted at the analysis root. It returns the
// parent array indexed by node ID (root's entry is None).
func (a *Analysis) SpanningTree(n int) ([]core.NodeID, error) {
	parents := make([]core.NodeID, n)
	for i := range parents {
		parents[i] = core.None
	}
	for u := 0; u < n; u++ {
		id := core.NodeID(u)
		if id == a.Root {
			continue
		}
		p, ok := a.Parent[id]
		if !ok {
			return nil, fmt.Errorf("%w: node %d", ErrIncomplete, u)
		}
		parents[id] = p
	}
	// Acyclicity and reachability: walk each node to the root.
	for u := 0; u < n; u++ {
		seen := make(map[core.NodeID]bool)
		cur := core.NodeID(u)
		for cur != a.Root {
			if seen[cur] {
				return nil, fmt.Errorf("causal: cycle through node %d", cur)
			}
			seen[cur] = true
			cur = parents[cur]
			if cur == core.None {
				return nil, fmt.Errorf("causal: node %d detached from root", u)
			}
		}
	}
	return parents, nil
}
