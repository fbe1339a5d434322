package election

import (
	"errors"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/sim"
)

func TestHWRingElectsMax(t *testing.T) {
	for _, n := range []int{3, 8, 33, 100} {
		res, err := RunHWRing(n, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Leader != core.NodeID(n-1) {
			t.Fatalf("n=%d: leader = %d, want max ID %d", n, res.Leader, n-1)
		}
		// NCU involvement: n STARTs + 1 surviving token + n-1 announce
		// copies = 2n system calls.
		if got := res.Metrics.Syscalls(); got != int64(2*n) {
			t.Fatalf("n=%d: syscalls = %d, want 2n = %d", n, got, 2*n)
		}
		// Constant time with free hardware: starts, token return, announce.
		if res.Metrics.FinishTime != 3 {
			t.Fatalf("n=%d: time = %d, want 3", n, res.Metrics.FinishTime)
		}
	}
}

func TestHWRingFiltersLosers(t *testing.T) {
	n := 16
	res, err := RunHWRing(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every token except the maximum dies in the switching fabric.
	if res.Metrics.Filtered != int64(n-1) {
		t.Fatalf("filtered = %d, want %d", res.Metrics.Filtered, n-1)
	}
	// Only one token reaches an NCU.
	if res.Stats.TourMsgs.Load() != 1 {
		t.Fatalf("tour messages = %d, want 1", res.Stats.TourMsgs.Load())
	}
}

func TestHWRingNeedsMaxStarter(t *testing.T) {
	// If the maximum-ID node does not start, its register blocks every
	// token and nobody is elected — the documented limitation of the
	// filter-based approach.
	_, err := RunHWRing(8, []core.NodeID{0, 1, 2})
	if !errors.Is(err, ErrNoLeader) {
		t.Fatalf("err = %v, want ErrNoLeader", err)
	}
}

func TestHWRingMaxOnlyStarterSuffices(t *testing.T) {
	res, err := RunHWRing(8, []core.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 7 {
		t.Fatalf("leader = %d, want 7", res.Leader)
	}
}

func TestHWRingRejectsTinyRings(t *testing.T) {
	if _, err := RunHWRing(2, nil); err == nil {
		t.Fatal("n=2 must be rejected")
	}
}

func TestHWRingWithHardwareDelay(t *testing.T) {
	// With C > 0 the hardware circulation costs time Theta(nC): the
	// trade-off direction reverses when transmission is not free.
	res, err := RunHWRing(16, nil, sim.WithDelays(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The max token circles 16 hops at C=2 after its START (t=1), then one
	// software unit, then the announce circle.
	if res.Metrics.FinishTime < 16*2 {
		t.Fatalf("time = %d, want >= 32 with C=2", res.Metrics.FinishTime)
	}
}

func TestMaxKeyFilterIgnoresOtherTraffic(t *testing.T) {
	f := newMaxKeyFilter(4)
	if !f(1, "unrelated") {
		t.Fatal("non-token payloads must pass")
	}
	if f(2, &hwToken{Key: 0}) {
		t.Fatal("token below the register must be dropped")
	}
	if !f(2, &hwToken{Key: 3}) {
		t.Fatal("token above the register must pass")
	}
	// The register was raised to 3: a key-2 token now dies at node 2.
	if f(2, &hwToken{Key: 2}) {
		t.Fatal("register update must persist")
	}
}
