package sim

import (
	"fmt"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/runtimetest"
)

// engines are this package's configurations the runtime contract runs on:
// classic, the shard-mode stream contract at p = 1, 2 and 8, and the
// reference engine.
var engines = []runtimetest.Engine{
	simEngine("classic", 0), simEngine("shards-1", 1), simEngine("shards-2", 2), simEngine("shards-8", 8),
	{Name: "reference", New: func(g *graph.Graph, f core.Factory, c runtimetest.Config) (runtimetest.Net, error) {
		return refNet{NewReference(g, f, options(c)...)}, nil
	}},
}

// simEngine builds under WithShards(p). At p >= 2 a network that did not
// partition fails the row, and C = 0, where none can, is refused.
func simEngine(name string, p int) runtimetest.Engine {
	return runtimetest.Engine{Name: name, Preconditions: "sim", New: func(g *graph.Graph, f core.Factory, c runtimetest.Config) (runtimetest.Net, error) {
		if p > 1 && c.C == 0 {
			return nil, runtimetest.ErrRefused
		}
		net := New(g, f, append(options(c), WithShards(p))...)
		if s := net.ShardInfo().Shards; p > 1 && s < 2 {
			return nil, fmt.Errorf("WithShards(%d) ran on %d shard", p, s)
		}
		return simNet{net}, nil
	}}
}

func options(c runtimetest.Config) []Option {
	return []Option{WithDelays(c.C, c.P), WithDmax(c.Dmax), WithMsgFaults(c.Faults), WithHopFilter(c.Filter), WithTrace(c.Trace)}
}

// simNet drives a Network at its clock.
type simNet struct{ *Network }

func (n simNet) Inject(v core.NodeID, payload any) { n.Network.Inject(n.Now(), v, payload) }
func (n simNet) CrashNode(v core.NodeID)           { n.Network.CrashNode(n.Now(), v) }
func (n simNet) RestoreNode(v core.NodeID)         { n.Network.RestoreNode(n.Now(), v) }
func (n simNet) Quiesce() error                    { _, err := n.Run(); return err }
func (simNet) Shutdown()                           {}

// refNet drives the reference engine the same way. It checks no driver
// precondition.
type refNet struct{ *Reference }

func (n refNet) Inject(v core.NodeID, payload any) { n.Reference.Inject(n.now, v, payload) }
func (n refNet) CrashNode(v core.NodeID)           { n.Reference.CrashNode(n.now, v) }
func (n refNet) RestoreNode(v core.NodeID)         { n.Reference.RestoreNode(n.now, v) }
func (n refNet) Quiesce() error                    { _, err := n.Run(); return err }
func (refNet) Shutdown()                           {}

// contract runs rows of the runtime contract on every engine.
func contract(t *testing.T, rows ...string) {
	t.Helper()
	for _, err := range runtimetest.Check(engines, rows...) {
		t.Error(err)
	}
}

func TestEnvSurface(t *testing.T)                     { contract(t, "env") }
func TestMulticastSingleSend(t *testing.T)            { contract(t, "env") }
func TestCrashAndRestoreNode(t *testing.T)            { contract(t, "crash-restore") }
func TestRapidFlapLinkEventAccounting(t *testing.T)   { contract(t, "link-flap") }
func TestLinkFailureDropsInFlight(t *testing.T)       { contract(t, "link-failure") }
func TestLinkEventNotification(t *testing.T)          { contract(t, "link-failure") }
func TestMsgFaultsDropLosesPacket(t *testing.T)       { contract(t, "msg-faults", "saturated/drop") }
func TestMsgFaultsDupDeliversTwice(t *testing.T)      { contract(t, "msg-faults", "saturated/dup") }
func TestMsgFaultsCorruptGarblesPayload(t *testing.T) { contract(t, "msg-faults", "saturated/corrupt") }
func TestSetMsgFaultsMidRun(t *testing.T)             { contract(t, "msg-faults") }
func TestHopFilterDropsInTransit(t *testing.T)        { contract(t, "filter") }
func TestHopFilterSkipsSenderAndTerminal(t *testing.T) {
	contract(t, "filter")
}
func TestHeaderBitsAccounting(t *testing.T)      { contract(t, "routes/faults-off") }
func TestDmaxEnforced(t *testing.T)              { contract(t, "routes/faults-off") }
func TestCopyPathBroadcastTiming(t *testing.T)   { contract(t, "routes/faults-off") }
func TestDeliveriesPerNode(t *testing.T)         { contract(t, "routes/faults-off") }
func TestPingPongTiming(t *testing.T)            { contract(t, "reverse") }
func TestSetLinkOnNonEdgePanics(t *testing.T)    { contract(t, "non-edge") }
func TestHandlerFailureStopsTheRun(t *testing.T) { contract(t, "fail") }
