package faults

import (
	"time"

	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/sim"
)

// Both runtimes satisfy the chaos engine's injection surface.
var (
	_ injector = (*sim.Network)(nil)
	_ injector = (*gosim.Network)(nil)
)

// harness is the runtime surface the soak driver needs beyond fault
// injection: start activations, drain to quiescence, and inspect the
// result. newSimHarness and newGosimHarness adapt the two runtimes.
type harness interface {
	injector
	// Inject schedules an external activation at v ("now" on the
	// discrete-event runtime).
	Inject(v core.NodeID, payload any)
	// Quiesce blocks until the network has no work left.
	Quiesce() error
	// Protocol returns v's protocol instance for inspection.
	Protocol(v core.NodeID) core.Protocol
	// PortMap exposes the ANR port numbering.
	PortMap() *core.PortMap
	// SetMsgFaults swaps the lossy-link profile for all traffic sent after
	// the call (the soak toggles it per phase). Both runtimes expose it.
	SetMsgFaults(f core.MsgFaults)
	// StallNode opens an NCU-stall window at v (gray failure: slow, not
	// dead): the discrete-event runtime inflates every activation's software
	// delay by extra for the next window time units; the goroutine runtime
	// deschedules each of the next window activations extra times.
	StallNode(v core.NodeID, window, extra core.Time)
	// Metrics snapshots the system-call accounting.
	Metrics() core.Metrics
	// Close releases runtime resources (goroutines on gosim; no-op on sim).
	Close()
}

type simHarness struct {
	*sim.Network
}

// newSimHarness adapts a discrete-event network. Quiesce runs the event
// loop until the heap drains; virtual time carries across calls.
func newSimHarness(net *sim.Network) harness { return simHarness{net} }

func (h simHarness) Inject(v core.NodeID, payload any) {
	h.Network.Inject(h.Network.Now(), v, payload)
}

func (h simHarness) Quiesce() error {
	_, err := h.Network.Run()
	return err
}

func (h simHarness) Close() {}

type gosimHarness struct {
	*gosim.Network
	timeout time.Duration
}

// newGosimHarness adapts a goroutine network; timeout bounds each Quiesce
// (Soak passes Config.Timeout, its default resolved).
func newGosimHarness(net *gosim.Network, timeout time.Duration) harness {
	return gosimHarness{net, timeout}
}

func (h gosimHarness) Quiesce() error { return h.Network.AwaitQuiescence(h.timeout) }

func (h gosimHarness) Close() { h.Network.Shutdown() }
