package faults

import (
	"time"

	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/sim"
)

// harness is what the soak driver asks of a network: the contract both
// runtimes share, plus the three things that genuinely differ between them,
// which simHarness and gosimHarness adapt.
type harness interface {
	core.Runtime
	// Inject schedules an external activation at v ("now" on the
	// discrete-event runtime).
	Inject(v core.NodeID, payload any)
	// Quiesce blocks until the network has no work left.
	Quiesce() error
	// Close releases runtime resources (goroutines on gosim; no-op on sim).
	Close()
}

// simHarness adapts a discrete-event network. Quiesce runs the event loop
// until the heap drains; virtual time carries across calls.
type simHarness struct {
	*sim.Network
}

func (h simHarness) Inject(v core.NodeID, payload any) {
	h.Network.Inject(h.Network.Now(), v, payload)
}

func (h simHarness) Quiesce() error {
	_, err := h.Network.Run()
	return err
}

func (h simHarness) Close() {}

// gosimHarness adapts a goroutine network; timeout bounds each Quiesce (Soak
// passes Config.Timeout, its default resolved).
type gosimHarness struct {
	*gosim.Network
	timeout time.Duration
}

func (h gosimHarness) Quiesce() error { return h.Network.AwaitQuiescence(h.timeout) }

func (h gosimHarness) Close() { h.Network.Shutdown() }
