package calls

import (
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// TestDupTeardownIdempotent: under a Dup=1 lossy link every teardown packet
// arrives (at least) twice at every transit node; the release must be a
// no-op the second time and leave no residual state.
func TestDupTeardownIdempotent(t *testing.T) {
	g := graph.Path(5)
	net, mgr := newNet(g)
	route := routeOver(t, net, []core.NodeID{0, 1, 2, 3, 4})

	net.Inject(0, 0, &SetupCmd{Call: 7, Route: route})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mgr(0).Status(7); got != StatusActive {
		t.Fatalf("caller status = %v, want active", got)
	}

	net.SetMsgFaults(core.MsgFaults{Dup: 1})
	net.Inject(net.Now()+1, 0, &TeardownCmd{Call: 7})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mgr(0).Status(7); got != StatusClosed {
		t.Fatalf("caller status = %v, want closed", got)
	}
	for v := core.NodeID(1); v <= 4; v++ {
		if mgr(v).Holds(7) {
			t.Fatalf("node %d still holds state after duplicated teardown", v)
		}
	}
}

// TestLateDupSetupCannotResurrectCall: a duplicated setup packet that arrives
// after the call's teardown must hit the tombstone and install nothing —
// previously it would silently reinstall hopState that nothing would ever
// clean up.
func TestLateDupSetupCannotResurrectCall(t *testing.T) {
	g := graph.Path(4)
	net, mgr := newNet(g)
	route := routeOver(t, net, []core.NodeID{0, 1, 2, 3})

	// Jitter-heavy profile: duplicates of the setup race far behind the
	// original, often crossing the teardown that follows. Many seeds, so at
	// least one interleaving exhibits the resurrection race.
	for seed := int64(0); seed < 20; seed++ {
		net, mgr = newNet(g, sim.WithSeed(seed))
		route = routeOver(t, net, []core.NodeID{0, 1, 2, 3})
		net.SetMsgFaults(core.MsgFaults{Dup: 0.8, Jitter: 0.2, JitterMax: 50})
		net.Inject(0, 0, &SetupCmd{Call: 9, Route: route})
		net.Inject(5, 0, &TeardownCmd{Call: 9})
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		for v := core.NodeID(1); v <= 3; v++ {
			if mgr(v).Holds(9) {
				t.Fatalf("seed %d: node %d resurrected call state from a late duplicate setup", seed, v)
			}
		}
	}
}

// TestConfirmTimeoutRetriesAlternate: when the confirm never arrives (the
// whole first attempt dies on a Drop=1 fabric), the caller tears down and
// retries over the alternate route once the driver ticks past the timeout.
func TestConfirmTimeoutRetriesAlternate(t *testing.T) {
	g := graph.Ring(6) // two disjoint paths 0->3: 0-1-2-3 and 0-5-4-3
	net, mgr := newNet(g)
	primary := routeOver(t, net, []core.NodeID{0, 1, 2, 3})
	alt := routeOver(t, net, []core.NodeID{0, 5, 4, 3})

	// Lose everything while the first attempt is in flight.
	net.SetMsgFaults(core.MsgFaults{Drop: 1})
	net.Inject(0, 0, &SetupCmd{Call: 11, Route: primary, Alt: alt, ConfirmTicks: 2})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mgr(0).Status(11); got != StatusPending {
		t.Fatalf("status = %v, want pending while confirm is lost", got)
	}

	// Heal the fabric, then tick past the timeout: the retry goes over Alt.
	net.SetMsgFaults(core.MsgFaults{})
	for i := 0; i < 3; i++ {
		net.Inject(net.Now()+1, 0, tick{})
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got := mgr(0).Status(11); got != StatusActive {
		t.Fatalf("status = %v, want active after alternate-route retry", got)
	}
	if mgr(0).Retries != 1 {
		t.Fatalf("Retries = %d, want 1", mgr(0).Retries)
	}
	// The call now lives on the alternate path; the primary path holds no
	// state (its setup died on the lossy fabric).
	for _, v := range []core.NodeID{5, 4, 3} {
		if !mgr(v).Holds(11) {
			t.Fatalf("alternate-path node %d holds no state", v)
		}
	}
	for _, v := range []core.NodeID{1, 2} {
		if mgr(v).Holds(11) {
			t.Fatalf("primary-path node %d holds stale state", v)
		}
	}

	// And the retried call tears down cleanly.
	net.Inject(net.Now()+1, 0, &TeardownCmd{Call: 11})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	for v := core.NodeID(1); v <= 5; v++ {
		if mgr(v).Holds(11) {
			t.Fatalf("node %d still holds state after final teardown", v)
		}
	}
}

// TestConfirmTimeoutExhaustionFails: if the retry also times out, the call
// fails rather than hanging pending forever.
func TestConfirmTimeoutExhaustionFails(t *testing.T) {
	g := graph.Path(3)
	net, mgr := newNet(g)
	route := routeOver(t, net, []core.NodeID{0, 1, 2})

	net.SetMsgFaults(core.MsgFaults{Drop: 1})
	net.Inject(0, 0, &SetupCmd{Call: 13, Route: route, ConfirmTicks: 1})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		net.Inject(net.Now()+1, 0, tick{})
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got := mgr(0).Status(13); got != StatusFailed {
		t.Fatalf("status = %v, want failed after retry exhaustion", got)
	}
}
