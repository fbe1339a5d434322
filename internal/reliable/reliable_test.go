package reliable

import (
	"fmt"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// lineRoute is the route from src to dst along a path graph 0-1-...-(n-1):
// the hop-by-hop node path converted through the port map.
func lineRoute(pm *core.PortMap, src, dst core.NodeID) (anr.Header, error) {
	path := []core.NodeID{src}
	step := core.NodeID(1)
	if dst < src {
		step = -1
	}
	for cur := src; cur != dst; {
		cur += step
		path = append(path, cur)
	}
	links, err := pm.RouteLinks(path)
	if err != nil {
		return nil, err
	}
	return anr.Direct(links), nil
}

// buildSim wires n reliable nodes on a path graph under the DES runtime.
func buildSim(t *testing.T, n int, faults core.MsgFaults, cfg Config, opts ...sim.Option) (*sim.Network, []*Node) {
	t.Helper()
	g := graph.Path(n)
	pm := core.NewPortMap(g)
	nodes := make([]*Node, n)
	all := append([]sim.Option{sim.WithDelays(1, 1), sim.WithMsgFaults(faults)}, opts...)
	net := sim.New(g, func(id core.NodeID) core.Protocol {
		nodes[id] = NewNode(id, cfg)
		return cmdNode{nodes[id], pm}
	}, all...)
	return net, nodes
}

// sendCmd is a driver-side payload: cmdNode turns it into a reliable send
// issued from inside the receiving activation, over the line route to dst.
type sendCmd struct {
	dst     core.NodeID
	payload any
}

// cmdNode wraps Node to accept driver sendCmds on a path graph.
type cmdNode struct {
	*Node
	pm *core.PortMap
}

func (n cmdNode) Deliver(env core.Env, pkt core.Packet) {
	if c, ok := pkt.Payload.(sendCmd); ok {
		route, err := lineRoute(n.pm, env.ID(), c.dst)
		if err == nil {
			err = n.E.SendRoute(env, c.dst, route, c.payload)
		}
		if err != nil {
			panic(err)
		}
		return
	}
	n.Node.Deliver(env, pkt)
}

// driveTicks injects ticks into node at a fixed virtual-time spacing, running
// the network quiescent between ticks.
func driveTicks(t *testing.T, net *sim.Network, node core.NodeID, ticks int) {
	t.Helper()
	for i := 0; i < ticks; i++ {
		net.Inject(net.Now()+1, node, Tick{})
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReliableExactlyOnceUnderLoss(t *testing.T) {
	var got []any
	cfg := Config{RTO: 1, MaxBackoff: 4}
	cfg.OnDeliver = func(_ core.Env, src core.NodeID, payload any) {
		got = append(got, payload)
	}
	net, nodes := buildSim(t, 4, core.MsgFaults{Drop: 0.3, Dup: 0.15, Corrupt: 0.1, Jitter: 0.1, JitterMax: 5}, cfg, sim.WithSeed(11))

	const N = 20
	for i := 0; i < N; i++ {
		p := fmt.Sprintf("msg-%d", i)
		net.Inject(net.Now()+1, 0, sendCmd{dst: 3, payload: p})
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Lossy phase: let retransmission fight the faults for a while.
	driveTicks(t, net, 0, 40)
	// Heal the network and flush: every remaining pending frame must land.
	net.SetMsgFaults(core.MsgFaults{})
	driveTicks(t, net, 0, 64)

	if nodes[0].E.Pending() != 0 {
		t.Fatalf("sender still has %d pending frames after fault-free flush", nodes[0].E.Pending())
	}
	want := make(map[any]int, N)
	for i := 0; i < N; i++ {
		want[fmt.Sprintf("msg-%d", i)] = 0
	}
	for _, p := range got {
		c, ok := want[p]
		if !ok {
			t.Fatalf("delivered phantom payload %v", p)
		}
		if c != 0 {
			t.Fatalf("payload %v delivered twice", p)
		}
		want[p] = 1
	}
	if len(got) != N {
		t.Fatalf("delivered %d payloads, want %d", len(got), N)
	}
	st := nodes[0].E.Stats()
	if st.Sent != N || st.Acked != N || st.Aborted != 0 {
		t.Fatalf("sender stats = %+v, want Sent=Acked=%d Aborted=0", st, N)
	}
	rst := nodes[3].E.Stats()
	if rst.Delivered != N {
		t.Fatalf("receiver Delivered = %d, want %d", rst.Delivered, N)
	}
	t.Logf("sender: %+v", st)
	t.Logf("receiver: %+v", rst)
}

func TestReliableDeadlineAborts(t *testing.T) {
	var aborted []*frame
	cfg := Config{RTO: 1, MaxBackoff: 2, Deadline: 6}
	cfg.OnAbort = func(_ core.Env, f *frame) { aborted = append(aborted, f) }
	net, nodes := buildSim(t, 3, core.MsgFaults{Drop: 1}, cfg, sim.WithSeed(3))
	net.Inject(0, 0, sendCmd{dst: 2, payload: "doomed"})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	driveTicks(t, net, 0, 12)
	if len(aborted) != 1 || aborted[0].Payload != "doomed" {
		t.Fatalf("aborted = %v, want the one doomed frame", aborted)
	}
	if nodes[0].E.Pending() != 0 {
		t.Fatal("aborted frame still pending")
	}
	if st := nodes[0].E.Stats(); st.Aborted != 1 || st.Acked != 0 {
		t.Fatalf("stats = %+v, want Aborted=1 Acked=0", st)
	}
}

func TestReliableChecksumRejectsCorruption(t *testing.T) {
	cfg := Config{RTO: 1, MaxBackoff: 2, Deadline: 4}
	net, nodes := buildSim(t, 2, core.MsgFaults{Corrupt: 1}, cfg, sim.WithSeed(5))
	net.Inject(0, 0, sendCmd{dst: 1, payload: "x"})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	driveTicks(t, net, 0, 8)
	rst := nodes[1].E.Stats()
	if rst.Delivered != 0 {
		t.Fatalf("corrupted frames delivered %d times, want 0", rst.Delivered)
	}
	if rst.BadSum == 0 {
		t.Fatal("checksum verification never fired despite Corrupt=1")
	}
	if st := nodes[0].E.Stats(); st.Aborted != 1 {
		t.Fatalf("sender Aborted = %d, want 1 (every attempt corrupted)", st.Aborted)
	}
}

func TestReliableDedupUnderPureDup(t *testing.T) {
	var got []any
	cfg := Config{RTO: 2, MaxBackoff: 4}
	cfg.OnDeliver = func(_ core.Env, _ core.NodeID, payload any) { got = append(got, payload) }
	net, nodes := buildSim(t, 3, core.MsgFaults{Dup: 1}, cfg, sim.WithSeed(9))
	for i := 0; i < 5; i++ {
		net.Inject(net.Now()+1, 0, sendCmd{dst: 2, payload: i})
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	driveTicks(t, net, 0, 10)
	if len(got) != 5 {
		t.Fatalf("delivered %d payloads, want exactly 5 despite Dup=1", len(got))
	}
	rst := nodes[2].E.Stats()
	if rst.Duplicates == 0 {
		t.Fatal("dedup window never fired despite Dup=1")
	}
	if nodes[0].E.Pending() != 0 {
		t.Fatalf("%d frames still pending", nodes[0].E.Pending())
	}
}

// TestReliableGosim runs the exactly-once scenario on the goroutine runtime:
// real asynchrony, fault profile on, driver ticks via injection.
func TestReliableGosim(t *testing.T) {
	g := graph.Path(3)
	type rec struct {
		src core.NodeID
		p   any
	}
	done := make(chan rec, 64)
	pm := core.NewPortMap(g)
	nodes := make([]*Node, 3)
	net := gosim.New(g, func(id core.NodeID) core.Protocol {
		cfg := Config{RTO: 1, MaxBackoff: 4}
		if id == 2 {
			cfg.OnDeliver = func(_ core.Env, src core.NodeID, payload any) {
				done <- rec{src, payload}
			}
		}
		nodes[id] = NewNode(id, cfg)
		return cmdNode{nodes[id], pm}
	}, gosim.WithMsgFaults(core.MsgFaults{Drop: 0.25, Dup: 0.1, Corrupt: 0.1, Jitter: 0.1}))
	defer net.Shutdown()

	const N = 10
	for i := 0; i < N; i++ {
		net.Inject(0, sendCmd{dst: 2, payload: i})
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		if err := net.AwaitQuiescence(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if nodes[0].E.Pending() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still %d pending at deadline", nodes[0].E.Pending())
		}
		if i == 30 {
			// Heal the fabric so the tail flushes deterministically.
			net.SetMsgFaults(core.MsgFaults{})
		}
		net.Inject(0, Tick{})
	}
	close(done)
	seen := make(map[any]bool)
	for r := range done {
		if seen[r.p] {
			t.Fatalf("payload %v delivered twice", r.p)
		}
		seen[r.p] = true
	}
	if len(seen) != N {
		t.Fatalf("delivered %d distinct payloads, want %d", len(seen), N)
	}
}
