package gosim

import (
	"sync/atomic"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
)

func TestCrashNodeIsolates(t *testing.T) {
	// Star: crash the hub; leaves can no longer reach each other and every
	// leaf gets a link-down notification.
	g := graph.Star(5)
	var downs atomic.Int64
	net := New(g, func(id core.NodeID) core.Protocol {
		return &crashWatcher{downs: &downs}
	})
	defer net.Shutdown()

	net.CrashNode(0)
	if err := net.AwaitQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 4 links x 2 endpoints = 8 notifications, 4 of them at leaves.
	if got := net.Metrics().LinkEvents; got != 8 {
		t.Fatalf("LinkEvents = %d, want 8", got)
	}
	if downs.Load() != 8 {
		t.Fatalf("down notifications = %d, want 8", downs.Load())
	}
	// A send through the dead hub is dropped.
	net.Inject(1, "go")
	if err := net.AwaitQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if net.Metrics().Drops != 1 {
		t.Fatalf("Drops = %d, want 1", net.Metrics().Drops)
	}
}

type crashWatcher struct {
	downs *atomic.Int64
}

func (p *crashWatcher) Init(core.Env) {}
func (p *crashWatcher) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Payload == "go" {
		// Try to reach another leaf via the hub (2 hops).
		_ = env.Send(anr.Direct([]anr.ID{1, 2}), "x")
	}
}
func (p *crashWatcher) LinkEvent(_ core.Env, port core.Port) {
	if !port.Up {
		p.downs.Add(1)
	}
}

// TestCrashAndRestoreNode mirrors the discrete-event runtime's test: a
// crash downs every incident link, a restore brings them all back, and both
// transitions notify the neighbors.
func TestCrashAndRestoreNode(t *testing.T) {
	g := graph.Star(4)
	net := New(g, func(id core.NodeID) core.Protocol {
		return &crashWatcher{downs: new(atomic.Int64)}
	})
	defer net.Shutdown()

	net.CrashNode(0)
	if err := net.AwaitQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for v := core.NodeID(1); v <= 3; v++ {
		if net.LinkUp(0, v) {
			t.Fatalf("link 0-%d still up after crash", v)
		}
	}
	// 3 links x 2 endpoints notified.
	if got := net.Metrics().LinkEvents; got != 6 {
		t.Fatalf("LinkEvents = %d, want 6", got)
	}
	net.RestoreNode(0)
	if err := net.AwaitQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for v := core.NodeID(1); v <= 3; v++ {
		if !net.LinkUp(0, v) {
			t.Fatalf("link 0-%d still down after restore", v)
		}
	}
	if got := net.Metrics().LinkEvents; got != 12 {
		t.Fatalf("LinkEvents = %d, want 12 after restore", got)
	}
	if net.Graph() != g {
		t.Fatal("Graph() must return the constructor's graph")
	}
}

// TestRapidFlapLinkEventAccounting drives one edge through k down/up flips:
// every data-link notification is exactly one NCU activation, so the
// LinkEvents count is 2 per flip (both endpoints) and nothing is delivered.
func TestRapidFlapLinkEventAccounting(t *testing.T) {
	g := graph.Path(3)
	net := New(g, func(id core.NodeID) core.Protocol {
		return &crashWatcher{downs: new(atomic.Int64)}
	})
	defer net.Shutdown()

	const flips = 50
	for i := 0; i < flips; i++ {
		net.InjectLink(1, 2, i%2 == 0)
	}
	if err := net.AwaitQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := net.Metrics()
	if m.LinkEvents != 2*flips {
		t.Fatalf("LinkEvents = %d, want %d (one activation per notification)", m.LinkEvents, 2*flips)
	}
	if m.Deliveries != 0 || m.Injections != 0 {
		t.Fatalf("flaps must not deliver packets: %s", m)
	}
	if got := m.Syscalls(); got != 2*flips {
		t.Fatalf("Syscalls = %d, want %d", got, 2*flips)
	}
}

func TestGosimHopFilter(t *testing.T) {
	g := graph.Path(3)
	net := New(g, func(id core.NodeID) core.Protocol {
		return &crashWatcher{downs: new(atomic.Int64)}
	}, WithHopFilter(func(at core.NodeID, payload any) bool { return at != 1 }))
	defer net.Shutdown()

	sender := &sendOnGo{}
	net.nodes[0].proto = sender
	net.Inject(0, "go")
	if err := net.AwaitQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := net.Metrics()
	if m.Filtered != 1 {
		t.Fatalf("Filtered = %d, want 1", m.Filtered)
	}
	if m.Deliveries != 0 {
		t.Fatalf("Deliveries = %d, want 0", m.Deliveries)
	}
}

type sendOnGo struct{}

func (p *sendOnGo) Init(core.Env) {}
func (p *sendOnGo) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Payload == "go" {
		// Two hops: 0 -> 1 -> 2; the filter kills it at node 1.
		if err := env.Send(anr.Direct([]anr.ID{1, 1}), "x"); err != nil {
			panic(err)
		}
	}
}
func (p *sendOnGo) LinkEvent(core.Env, core.Port) {}

func TestGosimHeaderBits(t *testing.T) {
	g := graph.Path(3) // width 2 -> 3 bits per entry
	net := New(g, func(id core.NodeID) core.Protocol { return &sendOnGo{} })
	defer net.Shutdown()
	net.Inject(0, "go")
	if err := net.AwaitQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := net.Metrics()
	// 2 hops + terminator = 3 entries x 3 bits.
	if m.HeaderBits != 9 {
		t.Fatalf("HeaderBits = %d, want 9", m.HeaderBits)
	}
	if m.MaxHeaderHops != 2 {
		t.Fatalf("MaxHeaderHops = %d, want 2", m.MaxHeaderHops)
	}
}

// WithHopFilter installs the extended hardware model's programmable
// switching filter (see core.HopFilter). The filter must be safe for
// concurrent use: sends from different nodes run in parallel.
func WithHopFilter(f core.HopFilter) Option { return func(c *config) { c.filter = f } }
