package gosim

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// genvProbe exercises the Env surface from inside an activation.
type genvProbe struct {
	id       atomic.Int64
	portTo   atomic.Int64
	now      atomic.Int64
	randSeen atomic.Bool
	mcastOK  atomic.Bool
	mcastDup atomic.Bool
}

func (p *genvProbe) Init(core.Env) {}

func (p *genvProbe) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Payload != "probe" {
		return
	}
	p.id.Store(int64(env.ID()))
	p.now.Store(int64(env.Now()))
	env.Rand().Int63()
	p.randSeen.Store(true)
	if port, ok := env.PortToward(2); ok {
		p.portTo.Store(int64(port.Remote))
	}
	err := env.Multicast([]anr.Header{
		anr.Direct([]anr.ID{1}),
		anr.Direct([]anr.ID{2}),
	}, "fanout")
	p.mcastOK.Store(err == nil)
	err = env.Multicast([]anr.Header{
		anr.Direct([]anr.ID{1}),
		anr.Direct([]anr.ID{1}),
	}, "dup")
	p.mcastDup.Store(errors.Is(err, core.ErrMulticastLinks))
}

func (p *genvProbe) LinkEvent(core.Env, core.Port) {}

func TestGenvSurface(t *testing.T) {
	g := graph.Path(3)
	buf := trace.NewBuffer()
	probe := &genvProbe{}
	net := New(g, func(id core.NodeID) core.Protocol {
		if id == 1 {
			return probe
		}
		return &replyProto{}
	}, WithSeed(5), WithTrace(buf))
	defer net.Shutdown()

	net.Inject(1, "probe")
	if err := net.AwaitQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if probe.id.Load() != 1 {
		t.Fatalf("ID = %d, want 1", probe.id.Load())
	}
	if probe.portTo.Load() != 2 {
		t.Fatalf("PortToward(2).Remote = %d, want 2", probe.portTo.Load())
	}
	if !probe.randSeen.Load() {
		t.Fatal("Rand not reachable")
	}
	if !probe.mcastOK.Load() {
		t.Fatal("legal multicast rejected")
	}
	if !probe.mcastDup.Load() {
		t.Fatal("duplicate-link multicast accepted")
	}
	if probe.now.Load() <= 0 {
		t.Fatal("Now must be a positive ordinal inside an activation")
	}
	if len(buf.Events()) == 0 {
		t.Fatal("trace sink saw nothing")
	}
	if _, ok := net.Protocol(1).(*genvProbe); !ok {
		t.Fatal("Protocol(1) must return the instance")
	}
}
