package sim_test

import (
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// TestEventBudgetConsumesTrippingEvent pins what a run leaves behind when the
// budget runs out mid-flood: the event that trips it is counted and consumed —
// never dispatched, never seen again — so every further Run consumes exactly
// one more event and fails the same way, and the metrics stay where the last
// dispatched event left them. The budget is one event core's, so the shard
// side claims one shard.
func TestEventBudgetConsumesTrippingEvent(t *testing.T) {
	const budget = 500
	tripped := step{op: run, want: sim.ErrEventBudget}
	got := both(t, scenario{name: "budget", graph: graphSpec{n: 48, p: 0.12, seed: 7}, mode: topology.ModeFlood,
		c: 3, p: 1, seed: 7, budget: budget, faults: core.MsgFaults{Jitter: 0.3, JitterMax: 9},
		steps: script(injectEvery(48, 8, 3), tripped, tripped)})
	for _, o := range got {
		for i, st := range o.steps {
			if st.events != budget+1+int64(i) || st.metrics != o.steps[0].metrics {
				t.Fatalf("Events() = %d, metrics %s after failed Run %d; want %d, %s", st.events, st.metrics, i+1, budget+1+i, o.steps[0].metrics)
			}
		}
	}
	// Pinned from the commit before events moved into the lanes by value.
	const want = "hops=1008 deliveries=173 (copies=0) injections=6 linkEvents=0 sends=144 packets=1008 drops=0 time=12 faults(drop=0 dup=0 corrupt=0 jitter=295)"
	for i, st := range got[0].steps {
		if got := st.metrics.String(); got != want {
			t.Fatalf("metrics after failed Run %d:\n  got  %s\n  want %s", i+1, got, want)
		}
	}
}
