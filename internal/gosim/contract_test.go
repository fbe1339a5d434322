package gosim

import (
	"testing"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/runtimetest"
)

// engines is the goroutine runtime as the runtime contract runs it.
var engines = []runtimetest.Engine{{Name: "gosim", Preconditions: "gosim",
	New: func(g *graph.Graph, f core.Factory, c runtimetest.Config) (runtimetest.Net, error) {
		return gosimNet{New(g, f, WithDmax(c.Dmax), WithMsgFaults(c.Faults), WithHopFilter(c.Filter), WithTrace(c.Trace))}, nil
	}}}

type gosimNet struct{ *Network }

func (n gosimNet) Quiesce() error { return n.AwaitQuiescence(10 * time.Second) }

// WithHopFilter installs the extended hardware model's programmable
// switching filter (see core.HopFilter). The filter must be safe for
// concurrent use: sends from different nodes run in parallel.
func WithHopFilter(f core.HopFilter) Option { return func(c *config) { c.filter = f } }

// contract runs rows of the runtime contract on this runtime.
func contract(t *testing.T, rows ...string) {
	t.Helper()
	for _, err := range runtimetest.Check(engines, rows...) {
		t.Error(err)
	}
}

func TestGenvSurface(t *testing.T)                  { contract(t, "env") }
func TestCrashNodeIsolates(t *testing.T)            { contract(t, "crash-restore") }
func TestCrashAndRestoreNode(t *testing.T)          { contract(t, "crash-restore") }
func TestRapidFlapLinkEventAccounting(t *testing.T) { contract(t, "link-flap") }
func TestLinkFailureDropAndNotify(t *testing.T)     { contract(t, "link-failure") }
func TestGosimMsgFaultsDrop(t *testing.T)           { contract(t, "msg-faults", "saturated/drop") }
func TestGosimMsgFaultsDupAndCorrupt(t *testing.T) {
	contract(t, "msg-faults", "saturated/dup", "saturated/corrupt")
}
func TestGosimHopFilter(t *testing.T)            { contract(t, "filter") }
func TestGosimHeaderBits(t *testing.T)           { contract(t, "routes/faults-off") }
func TestDmaxRejected(t *testing.T)              { contract(t, "routes/faults-off") }
func TestCopyPathDeliveries(t *testing.T)        { contract(t, "routes/faults-off") }
func TestReverseRouteReply(t *testing.T)         { contract(t, "reverse") }
func TestInjectLinkOnNonEdgePanics(t *testing.T) { contract(t, "non-edge") }
