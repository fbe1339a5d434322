package calls

import (
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
)

// The call manager is runtime-agnostic: the same protocol must work under
// true goroutine asynchrony.
func TestCallsOnGosim(t *testing.T) {
	g := graph.Path(5)
	net := gosim.New(g, func(id core.NodeID) core.Protocol {
		return New(id)
	}, gosim.WithDmax(g.N()))
	defer net.Shutdown()

	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(0, &SetupCmd{Call: 5, Route: anr.CopyPath(links)})
	if err := net.AwaitQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	caller := net.Protocol(0).(*Manager)
	if caller.Status(5) != StatusActive {
		t.Fatalf("status = %v, want active", caller.Status(5))
	}
	// Mid-call failure under the async runtime.
	net.InjectLink(2, 3, false)
	if err := net.AwaitQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if caller.Status(5) != StatusFailed {
		t.Fatalf("status = %v, want failed", caller.Status(5))
	}
	for v := core.NodeID(1); v <= 4; v++ {
		if net.Protocol(v).(*Manager).Holds(5) {
			t.Fatalf("node %d still holds state", v)
		}
	}
}
