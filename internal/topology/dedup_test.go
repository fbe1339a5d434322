package topology

import (
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// TestBroadcastForwardDedup: under a Dup=1 lossy link, every transit delivery
// arrives twice, but a node must fan out each broadcast round at most once —
// the watermark turns a would-be message storm into one extra (suppressed)
// delivery per duplicate.
func TestBroadcastForwardDedup(t *testing.T) {
	g := graph.CompleteBinaryTree(3)
	net := sim.New(g, NewMaintainer(ModeBranching, false, nil),
		sim.WithDelays(0, 1), sim.WithDmax(g.N()),
		sim.WithMsgFaults(core.MsgFaults{Dup: 1}))
	recs := RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < g.N(); u++ {
		net.Protocol(core.NodeID(u)).(Maintainer).Preload(recs)
	}
	net.Inject(0, 0, Trigger{})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}

	suppressed := 0
	for u := 0; u < g.N(); u++ {
		b := net.Protocol(core.NodeID(u)).(*broadcast)
		// Forwards counts non-origin fan-outs; at most one per round.
		if b.Forwards > 1 {
			t.Fatalf("node %d forwarded %d times in one round", u, b.Forwards)
		}
		suppressed += b.DupSuppressed
	}
	if suppressed == 0 {
		t.Fatal("Dup=1 never exercised the dedup watermark")
	}
	// The run must terminate with bounded work (no storm): with Dup=1 on a
	// 4-link path the duplicate fan-outs would otherwise double every hop.
	if m := net.Metrics(); m.FaultDups == 0 {
		t.Fatalf("metrics = %v: duplication never fired", m)
	}
}

// TestBroadcastDedupAllowsNewRounds: the watermark must not suppress later
// legitimate rounds from the same origin.
func TestBroadcastDedupAllowsNewRounds(t *testing.T) {
	g := graph.CompleteBinaryTree(3)
	totals := func(net *sim.Network) (fwd, sup int) {
		for u := 0; u < g.N(); u++ {
			b := net.Protocol(core.NodeID(u)).(*broadcast)
			fwd += b.Forwards
			sup += b.DupSuppressed
		}
		return
	}
	build := func() *sim.Network {
		net := sim.New(g, NewMaintainer(ModeBranching, false, nil),
			sim.WithDelays(0, 1), sim.WithDmax(g.N()))
		recs := RecordsForGraph(g, net.PortMap(), nil)
		for u := 0; u < g.N(); u++ {
			net.Protocol(core.NodeID(u)).(Maintainer).Preload(recs)
		}
		return net
	}
	run := func(net *sim.Network, rounds int) {
		for r := 0; r < rounds; r++ {
			net.Inject(net.Now()+1, 0, Trigger{})
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	one := build()
	run(one, 1)
	f1, _ := totals(one)
	if f1 == 0 {
		t.Fatal("no transit forwards on a binary tree; test graph too small")
	}
	three := build()
	run(three, 3)
	f3, s3 := totals(three)
	if f3 != 3*f1 {
		t.Fatalf("3 rounds forwarded %d times, want %d (watermark ate a round)", f3, 3*f1)
	}
	if s3 != 0 {
		t.Fatalf("fault-free rounds suppressed %d forwards, want 0", s3)
	}
}

// relayEnv is the part of core.Env a flood relay touches: its ports, and a
// count of the multicasts it makes. Any other call panics on the nil Env.
type relayEnv struct {
	core.Env
	ports []core.Port
	sent  int
}

func (e *relayEnv) Ports() []core.Port                    { return e.ports }
func (e *relayEnv) Multicast(_ []anr.Header, _ any) error { e.sent++; return nil }

// TestFullFloodForwardsEachOriginOnce: in full-knowledge flooding, another
// origin's message brings origin X's record before X's own flood arrives.
// X's flood must still be forwarded, once: the watermark is stored in X's
// entry, not read off the sequence number of X's record.
func TestFullFloodForwardsEachOriginOnce(t *testing.T) {
	const x, y = 5, 7
	env := &relayEnv{ports: []core.Port{
		{Local: 1, Remote: x, RemoteID: 1, Up: true},
		{Local: 2, Remote: y, RemoteID: 1, Up: true},
		{Local: 3, Remote: 9, RemoteID: 1, Up: true},
	}}
	f := NewMaintainer(ModeFlood, true, nil)(0).(*flood)
	f.Init(env)
	recX := Record{Node: x, Seq: 1, Links: []LinkInfo{{Local: 1, Remote: 1, Neighbor: 0, Up: true}}}
	recY := Record{Node: y, Seq: 1, Links: []LinkInfo{{Local: 1, Remote: 2, Neighbor: 0, Up: true}}}
	fromY := &floodMsg{Origin: y, Seq: 1, Recs: []Record{recX, recY}}
	fromX := &floodMsg{Origin: x, Seq: 1, Recs: []Record{recX, recY}}
	for i, step := range []struct {
		msg  *floodMsg
		port anr.ID
		sent int
	}{
		{fromY, 2, 1}, // Y's flood brings X's record: forwarded
		{fromX, 1, 2}, // X's own flood, X's record already held: forwarded
		{fromX, 3, 2}, // X's flood again, by another link: not
		{fromY, 3, 2}, // Y's flood again: not
	} {
		f.Deliver(env, core.Packet{Payload: step.msg, ArrivedOn: step.port})
		if env.sent != step.sent {
			t.Fatalf("after delivery %d: %d multicasts, want %d", i, env.sent, step.sent)
		}
	}
	if f.Forwards != 2 {
		t.Fatalf("%d forwards, want 2", f.Forwards)
	}
}
