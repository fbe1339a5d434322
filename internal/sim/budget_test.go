package sim_test

import (
	"errors"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// TestEventBudgetConsumesTrippingEvent pins what a run leaves behind when the
// budget runs out mid-flood: the event that trips it is counted and consumed —
// never dispatched, never seen again — so every further Run consumes exactly
// one more event and fails the same way, and the metrics stay where the last
// dispatched event left them.
func TestEventBudgetConsumesTrippingEvent(t *testing.T) {
	const budget = 500
	g := graph.GNP(48, 0.12, 7)
	net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
		sim.WithDelays(3, 1), sim.WithSeed(7), sim.WithEventBudget(budget),
		sim.WithMsgFaults(core.MsgFaults{Jitter: 0.3, JitterMax: 9}))
	for u := 0; u < g.N(); u += 8 {
		net.Inject(core.Time(u%3), core.NodeID(u), topology.Trigger{})
	}
	// Pinned from the commit before events moved into the lanes by value.
	const want = "hops=1008 deliveries=173 (copies=0) injections=6 linkEvents=0 sends=144 packets=1008 drops=0 time=12 faults(drop=0 dup=0 corrupt=0 jitter=295)"
	for extra := int64(1); extra <= 2; extra++ {
		if _, err := net.Run(); !errors.Is(err, sim.ErrEventBudget) {
			t.Fatalf("Run %d = %v, want ErrEventBudget", extra, err)
		}
		if got := net.Events(); got != budget+extra {
			t.Fatalf("Events() = %d after failed Run %d, want %d", got, extra, budget+extra)
		}
		if got := net.Metrics().String(); got != want {
			t.Fatalf("metrics after failed Run %d:\n  got  %s\n  want %s", extra, got, want)
		}
	}
}
