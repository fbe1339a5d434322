package integration_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/trace"
)

// sendOnce sends the header it is handed (multicasts a list of them), keeps
// what the switching subsystem answered, and notes every probe it is handed.
type sendOnce struct {
	mu   sync.Mutex
	errs []error
	got  []string // one line per probe delivery, in arrival order
}

func (p *sendOnce) Init(core.Env) {}

func (p *sendOnce) Deliver(env core.Env, pkt core.Packet) {
	var err error
	switch h := pkt.Payload.(type) {
	case anr.Header:
		err = env.Send(h, "probe")
	case []anr.Header:
		err = env.Multicast(h, "probe")
	default:
		p.mu.Lock()
		p.got = append(p.got, fmt.Sprintf("node %d arrived on %d forwarded on %d remaining %v reverse %v payload %#v",
			env.ID(), pkt.ArrivedOn, pkt.ForwardedOn, pkt.Remaining, pkt.Reverse, pkt.Payload))
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.mu.Unlock()
}

func (p *sendOnce) LinkEvent(core.Env, core.Port) {}

// contractDmax is the path-length restriction of every network the contract
// table builds: the three-hop probe path fits, the four-hop row does not.
const contractDmax = 3

// contractRow is one send the hardware model must answer identically on both
// runtimes. The graph is the path 0-1-2-3: node 0 has link 1; nodes 1 and 2
// have link 1 (toward 0) and link 2 (toward 3); node 3 has link 1.
type contractRow struct {
	name    string
	src     core.NodeID
	send    any              // anr.Header for Send, []anr.Header for Multicast
	down    [][2]core.NodeID // edges taken down before the send
	want    error            // the sentinel a refusal wraps; nil with refused set means any error
	refused bool
}

var contractRows = []contractRow{
	{name: "empty", send: anr.Header{}, want: anr.ErrEmptyHeader, refused: true},
	{name: "unterminated", send: anr.Header{{Link: 1}}, want: anr.ErrNoTerminator, refused: true},
	{name: "ncu-mid-route", send: anr.Header{{Link: 1}, {Link: anr.NCU}, {Link: 2}, {Link: anr.NCU}}, want: anr.ErrEarlyNCU, refused: true},
	{name: "huge-link-id", send: anr.Direct([]anr.ID{1 << 20}), want: anr.ErrIDRange, refused: true},
	{name: "no-such-link-first", send: anr.Direct([]anr.ID{9}), refused: true},
	{name: "no-such-link-later", send: anr.Direct([]anr.ID{1, 9}), refused: true},
	// Behind a dead link, where a walk that resolves links only as it reaches
	// them never looks: the route is refused whole all the same.
	{name: "no-such-link-behind-dead-link", send: anr.Direct([]anr.ID{1, 9}), down: [][2]core.NodeID{{0, 1}}, refused: true},
	{name: "dmax", send: anr.Direct([]anr.ID{1, 2, 2, 1}), want: anr.ErrPathTooLong, refused: true},
	{name: "dead-first-link", send: anr.Direct([]anr.ID{1, 2}), down: [][2]core.NodeID{{0, 1}}},
	{name: "copy-then-dead-link", send: anr.CopyPath([]anr.ID{1, 2, 2}), down: [][2]core.NodeID{{1, 2}}},
	{name: "multicast-repeated-first-link", src: 1, send: []anr.Header{anr.Direct([]anr.ID{2, 2}), anr.Direct([]anr.ID{2})}, want: core.ErrMulticastLinks, refused: true},
	{name: "multicast-bad-second-route", src: 1, send: []anr.Header{anr.Direct([]anr.ID{1}), anr.Direct([]anr.ID{2, 9})}, refused: true},
	{name: "multicast-no-routes", src: 1, send: []anr.Header{}},
}

// contractOutcome is what one row left behind on one runtime.
type contractOutcome struct {
	errs       []error
	metrics    core.Metrics // FinishTime zeroed: the goroutine runtime has no clock
	deliveries []string     // sendOnce.got, sorted: the multiset of what every NCU was handed
	events     []trace.Event
}

// check holds the outcome against the row: one answer, refused or not, and
// wrapping the named sentinel where the row names one; and every message's
// first trace event is its send — a fault, drop or delivery is recorded after
// the packet left.
func (o contractOutcome) check(t *testing.T, row contractRow) {
	t.Helper()
	if len(o.errs) != 1 || (o.errs[0] != nil) != row.refused {
		t.Fatalf("%s: answered %v, want one answer, refused=%v", row.name, o.errs, row.refused)
	}
	if row.want != nil && !errors.Is(o.errs[0], row.want) {
		t.Fatalf("%s: refused with %v, want %v", row.name, o.errs[0], row.want)
	}
	seen := map[int64]bool{}
	for _, e := range o.events {
		if e.Msg != 0 && !seen[e.Msg] {
			seen[e.Msg] = true
			if e.Kind != trace.KindSend {
				t.Fatalf("%s: message %d is first traced as %+v, not its send", row.name, e.Msg, e)
			}
		}
	}
}

// same fails t unless two runtimes counted the same metrics and handed their
// NCUs the same packets.
func (o contractOutcome) same(t *testing.T, row contractRow, onSim contractOutcome) {
	t.Helper()
	if o.metrics != onSim.metrics {
		t.Fatalf("%s: metrics differ\n gosim %+v\n sim   %+v", row.name, o.metrics, onSim.metrics)
	}
	if !slices.Equal(o.deliveries, onSim.deliveries) {
		t.Fatalf("%s: deliveries differ\n gosim %q\n sim   %q", row.name, o.deliveries, onSim.deliveries)
	}
}

func (p *sendOnce) outcome(m core.Metrics, buf *trace.Buffer) contractOutcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	slices.Sort(p.got)
	return contractOutcome{p.errs, m, p.got, buf.Events()}
}

func contractOnSim(t *testing.T, row contractRow, faults core.MsgFaults) contractOutcome {
	t.Helper()
	p, buf := &sendOnce{}, trace.NewBuffer()
	net := sim.New(graph.Path(4), func(core.NodeID) core.Protocol { return p },
		sim.WithDelays(1, 1), sim.WithDmax(contractDmax), sim.WithMsgFaults(faults), sim.WithTrace(buf))
	for _, e := range row.down {
		net.InjectLink(e[0], e[1], false)
	}
	net.Inject(net.Now(), row.src, row.send)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	m := net.Metrics()
	m.FinishTime = 0
	return p.outcome(m, buf)
}

func contractOnGosim(t *testing.T, row contractRow, faults core.MsgFaults) contractOutcome {
	t.Helper()
	p, buf := &sendOnce{}, trace.NewBuffer()
	net := gosim.New(graph.Path(4), func(core.NodeID) core.Protocol { return p },
		gosim.WithDmax(contractDmax), gosim.WithMsgFaults(faults), gosim.WithTrace(buf))
	defer net.Shutdown()
	for _, e := range row.down {
		net.InjectLink(e[0], e[1], false)
	}
	if err := net.AwaitQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	net.Inject(row.src, row.send)
	if err := net.AwaitQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return p.outcome(net.Metrics(), buf)
}

// TestHostileRouteRefusedOnBothRuntimes is the contract table of the hardware
// model's send side (docs/MODEL.md §§1-4, 9): for every row — malformed,
// unroutable, over-long, dead-ended and multicast sends — the switching
// subsystem gives the answer the row states, the goroutine runtime gives the
// discrete-event runtime's answer, both count the same core.Metrics, and both
// hand the same multiset of packets (node, arrival and forwarding links,
// remaining and reverse routes, payload or core.Garbled) to the NCUs. On both,
// a message is traced first as sent. The lossy-link model is on (every
// traversal jittered, so the fault counts are not a matter of luck) and off.
// Then, for each fault kind at probability 1 on a three-hop copy path, both
// runtimes count the same hops, deliveries, copies and faults of each kind and
// deliver the same packets; duplicated behind a dead last link, each branch
// the duplicates make is one drop on both.
func TestHostileRouteRefusedOnBothRuntimes(t *testing.T) {
	for _, faults := range []core.MsgFaults{{}, {Jitter: 1, JitterMax: 2}} {
		name := "faults-off"
		if faults.Enabled() {
			name = "faults-on"
		}
		t.Run("sim/"+name, func(t *testing.T) {
			for _, row := range contractRows {
				contractOnSim(t, row, faults).check(t, row)
			}
		})
		t.Run("gosim/"+name, func(t *testing.T) {
			for _, row := range contractRows {
				got := contractOnGosim(t, row, faults)
				got.check(t, row)
				got.same(t, row, contractOnSim(t, row, faults))
			}
		})
	}
	for _, prof := range []struct {
		name   string
		faults core.MsgFaults
		fired  func(core.Metrics) int64
		down   [][2]core.NodeID
	}{
		{"drop", core.MsgFaults{Drop: 1}, func(m core.Metrics) int64 { return m.FaultDrops }, nil},
		{"dup", core.MsgFaults{Dup: 1}, func(m core.Metrics) int64 { return m.FaultDups }, nil},
		{"corrupt", core.MsgFaults{Corrupt: 1}, func(m core.Metrics) int64 { return m.FaultCorrupts }, nil},
		{"jitter", core.MsgFaults{Jitter: 1, JitterMax: 3}, func(m core.Metrics) int64 { return m.FaultJitters }, nil},
		{"reorder", core.MsgFaults{Reorder: 1, ReorderWindow: 3}, func(m core.Metrics) int64 { return m.FaultReorders }, nil},
		{"slowdown", core.MsgFaults{Slowdown: 1, SlowFactor: 2, SlowMax: 3}, func(m core.Metrics) int64 { return m.FaultSlowdowns }, nil},
		{"dup-behind-dead-link", core.MsgFaults{Dup: 1}, func(m core.Metrics) int64 { return m.Drops }, [][2]core.NodeID{{2, 3}}},
	} {
		t.Run("saturated/"+prof.name, func(t *testing.T) {
			probe := contractRow{name: "copy-path", send: anr.CopyPath([]anr.ID{1, 2, 2}), down: prof.down}
			onSim, onGosim := contractOnSim(t, probe, prof.faults), contractOnGosim(t, probe, prof.faults)
			onSim.check(t, probe)
			onGosim.check(t, probe)
			onGosim.same(t, probe, onSim)
			if prof.fired(onSim.metrics) == 0 {
				t.Fatalf("the %s fault never fired: %+v", prof.name, onSim.metrics)
			}
		})
	}
}
