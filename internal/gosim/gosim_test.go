package gosim

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// echoProto forwards an integer counter to its first port until it hits 0.
type echoProto struct {
	seen atomic.Int64
}

func (p *echoProto) Init(core.Env) {}

func (p *echoProto) Deliver(env core.Env, pkt core.Packet) {
	p.seen.Add(1)
	n, ok := pkt.Payload.(int)
	if !ok || n <= 0 {
		return
	}
	if err := env.Send(anr.Direct([]anr.ID{env.Ports()[0].Local}), n-1); err != nil {
		panic(err)
	}
}

func (p *echoProto) LinkEvent(core.Env, core.Port) {}

// idleProto sends nothing.
type idleProto struct{}

func (idleProto) Init(core.Env)                 {}
func (idleProto) Deliver(core.Env, core.Packet) {}
func (idleProto) LinkEvent(core.Env, core.Port) {}

func TestForwardChain(t *testing.T) {
	g := graph.Ring(5)
	protos := make([]*echoProto, 5)
	net := New(g, func(id core.NodeID) core.Protocol {
		p := &echoProto{}
		protos[id] = p
		return p
	})
	defer net.Shutdown()

	net.Inject(0, 12) // 12 forwards after the injected activation
	if err := net.AwaitQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := net.Metrics()
	if m.Injections != 1 {
		t.Fatalf("Injections = %d, want 1", m.Injections)
	}
	if m.Deliveries != 12 {
		t.Fatalf("Deliveries = %d, want 12", m.Deliveries)
	}
	total := int64(0)
	for _, p := range protos {
		total += p.seen.Load()
	}
	if total != 13 { // injection + 12 forwards
		t.Fatalf("total activations seen = %d, want 13", total)
	}
}

func TestQuiescenceOnIdleNetwork(t *testing.T) {
	g := graph.Path(2)
	net := New(g, func(id core.NodeID) core.Protocol { return idleProto{} })
	defer net.Shutdown()
	if err := net.AwaitQuiescence(time.Second); err != nil {
		t.Fatalf("idle network must be quiescent: %v", err)
	}
}

func TestQuiescenceTimeout(t *testing.T) {
	// A protocol that ping-pongs forever never quiesces.
	g := graph.Path(2)
	net := New(g, func(id core.NodeID) core.Protocol { return &pinger{} })
	defer net.Shutdown()
	net.Inject(0, "go")
	err := net.AwaitQuiescence(50 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

type pinger struct{}

func (p *pinger) Init(core.Env) {}
func (p *pinger) Deliver(env core.Env, pkt core.Packet) {
	_ = env.Send(anr.Direct([]anr.ID{env.Ports()[0].Local}), "again")
}
func (p *pinger) LinkEvent(core.Env, core.Port) {}

func TestShutdownIdempotent(t *testing.T) {
	g := graph.Path(2)
	net := New(g, func(id core.NodeID) core.Protocol { return idleProto{} })
	net.Shutdown()
	net.Shutdown() // must not panic or deadlock
}

func TestConcurrentFanInCountsExact(t *testing.T) {
	// Every leaf of a large star sends one message to the hub; the hub must
	// count exactly n-1 deliveries despite concurrency.
	const n = 64
	g := graph.Star(n)
	var hubSeen atomic.Int64
	net := New(g, func(id core.NodeID) core.Protocol {
		if id == 0 {
			return &counterProto{c: &hubSeen}
		}
		return &leafSender{}
	})
	defer net.Shutdown()
	for v := core.NodeID(1); v < n; v++ {
		net.Inject(v, "go")
	}
	if err := net.AwaitQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if hubSeen.Load() != n-1 {
		t.Fatalf("hub saw %d, want %d", hubSeen.Load(), n-1)
	}
	if m := net.Metrics(); m.Deliveries != n-1 || m.Hops != n-1 {
		t.Fatalf("metrics = %v", m)
	}
}

type counterProto struct{ c *atomic.Int64 }

func (p *counterProto) Init(core.Env) {}
func (p *counterProto) Deliver(env core.Env, pkt core.Packet) {
	p.c.Add(1)
}
func (p *counterProto) LinkEvent(core.Env, core.Port) {}

type leafSender struct{}

func (p *leafSender) Init(core.Env) {}
func (p *leafSender) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Payload == "go" {
		if err := env.Send(anr.Direct([]anr.ID{1}), "hit"); err != nil {
			panic(err)
		}
	}
}
func (p *leafSender) LinkEvent(core.Env, core.Port) {}

// DeliveriesPerNode returns a copy of the per-node delivery counts.
func (net *Network) DeliveriesPerNode() []int64 {
	out := make([]int64, len(net.nodes))
	for i, nd := range net.nodes {
		out[i] = nd.metrics.Deliveries
	}
	return out
}
