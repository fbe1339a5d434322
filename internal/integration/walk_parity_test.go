package integration_test

import (
	"sync"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// sendOnce sends the header it is handed and keeps what Send answered.
type sendOnce struct {
	mu   sync.Mutex
	errs []error
}

func (p *sendOnce) Init(core.Env) {}

func (p *sendOnce) Deliver(env core.Env, pkt core.Packet) {
	if h, ok := pkt.Payload.(anr.Header); ok {
		err := env.Send(h, "probe")
		p.mu.Lock()
		p.errs = append(p.errs, err)
		p.mu.Unlock()
	}
}

func (p *sendOnce) LinkEvent(core.Env, core.Port) {}

// TestHostileRouteRefusedOnBothRuntimes: a header naming a link that does not
// exist is refused by Send wherever on the route the packet would have
// stopped — here behind a dead link, where a walk that resolves links only as
// it reaches them never looks. Both runtimes must agree, with the lossy-link
// model on and off: the switching subsystem has one walker, and it validates
// the route against the port map before the first hop.
func TestHostileRouteRefusedOnBothRuntimes(t *testing.T) {
	// Path 0-1-2: link 1 at node 0 is the dead edge 0-1; node 1 has links 1
	// and 2 only, so the second hop names a link nobody has.
	g := graph.Path(3)
	hostile := anr.Direct([]anr.ID{1, 9})
	for _, faults := range []core.MsgFaults{{}, {Jitter: 0.5, JitterMax: 2}} {
		name := "faults-off"
		if faults.Enabled() {
			name = "faults-on"
		}
		t.Run("sim/"+name, func(t *testing.T) {
			p := &sendOnce{}
			net := sim.New(g, func(core.NodeID) core.Protocol { return p }, sim.WithDelays(1, 1), sim.WithMsgFaults(faults))
			net.InjectLink(0, 1, false)
			net.Inject(net.Now(), 0, hostile)
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
			if len(p.errs) != 1 || p.errs[0] == nil {
				t.Fatalf("Send of %v answered %v, want one refusal", hostile, p.errs)
			}
		})
		t.Run("gosim/"+name, func(t *testing.T) {
			p := &sendOnce{}
			net := gosim.New(g, func(core.NodeID) core.Protocol { return p }, gosim.WithMsgFaults(faults))
			defer net.Shutdown()
			net.InjectLink(0, 1, false)
			if err := net.AwaitQuiescence(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			net.Inject(0, hostile)
			if err := net.AwaitQuiescence(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			if len(p.errs) != 1 || p.errs[0] == nil {
				t.Fatalf("Send of %v answered %v, want one refusal", hostile, p.errs)
			}
		})
	}
}
