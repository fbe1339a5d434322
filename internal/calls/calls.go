// Package calls implements PARIS-style call (connection) management on the
// fastnet model — the application the paper cites for the selective-copy
// mechanism ([CG88]: "An example how the copy function is used for setup
// and take-down of calls").
//
// A call is set up along a source route with a single copy-path packet: the
// copy bit drops the setup message at every transit NCU, which installs
// call state (including the remaining route downstream and the hardware
// reverse route upstream); the terminal node confirms to the caller over
// the reverse route. Take-down is one more copy-path packet. If a link on
// the call's path fails, the data-link notification lets the adjacent nodes
// tear the call down toward both ends, using only the state stored at setup
// time — no routing tables needed anywhere.
package calls

import (
	"fmt"
	"sort"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// CallID identifies a call network-wide (assigned by callers; callers must
// keep them unique, e.g. caller ID in the high bits).
type CallID uint64

// Status is a caller-side call state.
type Status int

// Caller-visible call states.
const (
	StatusPending Status = iota + 1
	StatusActive
	StatusClosed
	StatusFailed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusActive:
		return "active"
	case StatusClosed:
		return "closed"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// setupMsg reserves the call at every on-path node. Epoch is the caller's
// attempt number: it lets tombstones reject a late (fault-duplicated or
// reordered) setup of an attempt that was already torn down, without blocking
// a genuine retry of the same call over another route.
type setupMsg struct {
	Call   CallID
	Caller core.NodeID
	Epoch  uint32
}

// confirmMsg flows back from the callee on the reverse route.
type confirmMsg struct {
	Call  CallID
	Epoch uint32
}

// teardownMsg releases the call; Fail marks failure-driven teardown.
type teardownMsg struct {
	Call  CallID
	Epoch uint32
	Fail  bool
}

// tick drives the caller-side confirm timeout; whatever drives the network
// injects it periodically — today only this package's lossy-call tests do
// (NCUs have no timers in this model — compare topology.Trigger and
// reliable.Tick).
type tick struct{}

// SetupCmd is injected at the caller to open a call over the given route
// (transit hops must carry copy bits; use anr.CopyPath).
type SetupCmd struct {
	Call  CallID
	Route anr.Header
	// Alt, when non-empty, is the alternate route used for one retry if the
	// confirm does not arrive within ConfirmTicks ticks: the caller tears
	// the partial attempt down over Route and re-sets-up over Alt.
	Alt anr.Header
	// ConfirmTicks is the confirm timeout in driver ticks; 0 disables the
	// timeout (the pre-lossy behavior).
	ConfirmTicks int
}

// TeardownCmd is injected at the caller to close an active call.
type TeardownCmd struct {
	Call CallID
}

// hopState is what a node remembers about one call crossing it.
type hopState struct {
	// Down is the full route from THIS node toward the callee (empty at
	// the callee): the link the SS forwarded on plus the remaining route.
	Down anr.Header
	// Up returns toward the caller (hardware reverse route).
	Up anr.Header
	// In is the local link toward the caller side; Out toward the callee
	// side (NCU at the callee).
	In, Out anr.ID
	// Epoch is the setup attempt that installed this state.
	Epoch uint32
}

// callerState is the caller-side bookkeeping for one call opened here.
type callerState struct {
	route anr.Header
	alt   anr.Header
	epoch uint32
	// ticksLeft counts down to the confirm timeout while pending; <0 means
	// no timeout armed.
	ticksLeft    int
	confirmTicks int
	retried      bool
}

// Manager is the per-node call-management protocol.
type Manager struct {
	id core.NodeID

	// table holds state for calls crossing or ending at this node.
	table map[CallID]hopState

	// closed is the tombstone watermark: the highest epoch of each call that
	// has been torn down at this node. Setups at or below it are refused, so
	// a duplicated setup packet straggling behind its own teardown cannot
	// reinstall state; a retry (higher epoch) passes. Tombstones persist for
	// the node's lifetime — call IDs are caller-unique and never reused.
	closed map[CallID]uint32

	// caller-side bookkeeping
	status map[CallID]Status
	calls  map[CallID]*callerState

	// Retries counts confirm-timeout retries issued by this caller.
	Retries int
}

var _ core.Protocol = (*Manager)(nil)

// New returns the call manager for one node.
func New(id core.NodeID) *Manager {
	return &Manager{
		id:     id,
		table:  make(map[CallID]hopState),
		closed: make(map[CallID]uint32),
		status: make(map[CallID]Status),
		calls:  make(map[CallID]*callerState),
	}
}

// Status returns the caller-side state of a call opened at this node.
func (m *Manager) Status(c CallID) Status { return m.status[c] }

// Holds reports whether this node currently carries state for the call.
func (m *Manager) Holds(c CallID) bool {
	_, ok := m.table[c]
	return ok
}

// Calls lists the calls crossing this node, sorted.
func (m *Manager) Calls() []CallID {
	out := make([]CallID, 0, len(m.table))
	for c := range m.table {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Init implements core.Protocol.
func (m *Manager) Init(core.Env) {}

// Deliver implements core.Protocol.
func (m *Manager) Deliver(env core.Env, pkt core.Packet) {
	switch msg := pkt.Payload.(type) {
	case *SetupCmd:
		cs := &callerState{route: msg.Route, alt: msg.Alt, epoch: 1, ticksLeft: -1, confirmTicks: msg.ConfirmTicks}
		if msg.ConfirmTicks > 0 {
			cs.ticksLeft = msg.ConfirmTicks
		}
		m.status[msg.Call] = StatusPending
		m.calls[msg.Call] = cs
		if err := env.Send(msg.Route, &setupMsg{Call: msg.Call, Caller: m.id, Epoch: cs.epoch}); err != nil {
			m.status[msg.Call] = StatusFailed
		}
	case *TeardownCmd:
		if m.status[msg.Call] != StatusActive && m.status[msg.Call] != StatusPending {
			return
		}
		m.status[msg.Call] = StatusClosed
		cs := m.calls[msg.Call]
		cs.ticksLeft = -1
		if err := env.Send(cs.route, &teardownMsg{Call: msg.Call, Epoch: cs.epoch}); err != nil {
			m.status[msg.Call] = StatusFailed
		}
	case tick:
		m.tick(env)
	case *setupMsg:
		if msg.Epoch <= m.closed[msg.Call] {
			// This attempt was already torn down here: a duplicated or
			// reordered setup packet must not resurrect the call state.
			return
		}
		if st, ok := m.table[msg.Call]; ok && st.Epoch >= msg.Epoch {
			// Duplicate of an attempt already installed: keep the existing
			// state. The callee still re-confirms below — the dup may mean
			// the first confirm was lost.
			if len(pkt.Remaining) == 0 {
				_ = env.Send(pkt.Reverse, &confirmMsg{Call: msg.Call, Epoch: msg.Epoch})
			}
			return
		}
		var down anr.Header
		if pkt.ForwardedOn != anr.NCU {
			down = make(anr.Header, 0, len(pkt.Remaining)+1)
			down = append(down, anr.Hop{Link: pkt.ForwardedOn})
			down = append(down, pkt.Remaining...)
		}
		m.table[msg.Call] = hopState{
			Down:  down,
			Up:    pkt.Reverse.Clone(),
			In:    pkt.ArrivedOn,
			Out:   pkt.ForwardedOn,
			Epoch: msg.Epoch,
		}
		if len(pkt.Remaining) == 0 {
			// Callee: confirm end-to-end over the reverse route.
			if err := env.Send(pkt.Reverse, &confirmMsg{Call: msg.Call, Epoch: msg.Epoch}); err != nil {
				delete(m.table, msg.Call)
			}
		}
	case *confirmMsg:
		cs := m.calls[msg.Call]
		if m.status[msg.Call] == StatusPending && cs != nil && msg.Epoch == cs.epoch {
			m.status[msg.Call] = StatusActive
			cs.ticksLeft = -1
		}
	case *teardownMsg:
		if msg.Fail && m.status[msg.Call] == StatusActive {
			m.status[msg.Call] = StatusFailed
		}
		if msg.Epoch > m.closed[msg.Call] {
			m.closed[msg.Call] = msg.Epoch
		}
		// Idempotent under duplication: only state of this attempt (or an
		// older one) is released; a retry's fresher state survives a
		// straggling teardown of the abandoned attempt.
		if st, ok := m.table[msg.Call]; ok && st.Epoch <= msg.Epoch {
			delete(m.table, msg.Call)
		}
	}
}

// tick advances every armed confirm timeout one step. On expiry the caller
// tears the partial attempt down over its route (clearing any transit state
// it managed to install) and, once, retries over the alternate route — or the
// same route again when none was given. A second expiry fails the call.
func (m *Manager) tick(env core.Env) {
	ids := make([]CallID, 0, len(m.calls))
	for c := range m.calls {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, c := range ids {
		cs := m.calls[c]
		if m.status[c] != StatusPending || cs.ticksLeft < 0 {
			continue
		}
		if cs.ticksLeft--; cs.ticksLeft >= 0 {
			continue
		}
		// Confirm timeout: release the partial attempt.
		_ = env.Send(cs.route, &teardownMsg{Call: c, Epoch: cs.epoch})
		if cs.retried {
			m.status[c] = StatusFailed
			cs.ticksLeft = -1
			continue
		}
		cs.retried = true
		m.Retries++
		if len(cs.alt) > 0 {
			cs.route = cs.alt
		}
		cs.epoch++
		cs.ticksLeft = cs.confirmTicks
		if err := env.Send(cs.route, &setupMsg{Call: c, Caller: m.id, Epoch: cs.epoch}); err != nil {
			m.status[c] = StatusFailed
		}
	}
}

// LinkEvent implements core.Protocol: when a local link fails, every call
// using it is torn down toward the other side with the state stored at
// setup time; the caller/callee learn of the failure.
func (m *Manager) LinkEvent(env core.Env, port core.Port) {
	if port.Up {
		return
	}
	for c, st := range m.table {
		switch port.Local {
		case st.Out:
			// Downstream side died: release upstream (copy bits clear the
			// transit state on the way to the caller).
			m.release(env, c, st.Up, st.Epoch)
		case st.In:
			// Upstream side died: release downstream.
			m.release(env, c, st.Down, st.Epoch)
		}
	}
	// Caller-side: a call whose first hop just died cannot be released
	// remotely from here; the far side of the link handles its own half.
	for c, st := range m.status {
		if st != StatusPending && st != StatusActive {
			continue
		}
		if cs := m.calls[c]; cs != nil && len(cs.route) > 0 && cs.route[0].Link == port.Local {
			m.status[c] = StatusFailed
			cs.ticksLeft = -1
		}
	}
}

// release removes local state and notifies one direction with a
// failure-marked teardown whose copy bits clear every transit node's state.
func (m *Manager) release(env core.Env, c CallID, route anr.Header, epoch uint32) {
	delete(m.table, c)
	if epoch > m.closed[c] {
		m.closed[c] = epoch
	}
	if route.HopCount() == 0 {
		return
	}
	_ = env.Send(copyify(route), &teardownMsg{Call: c, Epoch: epoch, Fail: true})
}

// copyify rebuilds a route as a copy path (first hop normal, transit hops
// copied) so the teardown reaches every on-path NCU exactly once.
func copyify(h anr.Header) anr.Header {
	links := make([]anr.ID, 0, h.HopCount())
	for _, hop := range h[:len(h)-1] {
		links = append(links, hop.Link)
	}
	return anr.CopyPath(links)
}
