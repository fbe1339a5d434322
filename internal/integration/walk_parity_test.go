package integration_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
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

var errCannotContinue = errors.New("contract: handler cannot continue")

// failAtTwo relays an injected probe from node 0 to node 2, whose handler
// cannot continue: it fails the run, then sends one more packet on to node 3.
// Every other delivery is noted.
type failAtTwo struct {
	mu  sync.Mutex
	got []string
}

func (p *failAtTwo) Init(core.Env)                 {}
func (p *failAtTwo) LinkEvent(core.Env, core.Port) {}
func (p *failAtTwo) Deliver(env core.Env, pkt core.Packet) {
	switch {
	case pkt.Injected:
		_ = env.Send(anr.Direct([]anr.ID{1, 2}), "probe")
	case env.ID() == 2:
		env.Fail(fmt.Errorf("%w: handed %v", errCannotContinue, pkt.Payload))
		_ = env.Send(anr.OneHop(2), "after the failure")
	default:
		p.mu.Lock()
		p.got = append(p.got, fmt.Sprintf("node %d got %v", env.ID(), pkt.Payload))
		p.mu.Unlock()
	}
}

// TestHandlerFailureOnBothRuntimes is the contract row of a handler that
// cannot continue (core.Env.Fail, docs/MODEL.md): on both runtimes the run
// ends with a core.HandlerError naming the same node and cause, the cause
// stays reachable through errors.Is, and what the failing handler sent after
// Fail is never delivered — sim dispatches nothing more, gosim discards
// deliveries until it quiesces. A second run of the failed sim network
// returns the same error.
func TestHandlerFailureOnBothRuntimes(t *testing.T) {
	onSim := &failAtTwo{}
	net := sim.New(graph.Path(4), func(core.NodeID) core.Protocol { return onSim }, sim.WithDelays(1, 1))
	net.Inject(0, 0, "start")
	_, simErr := net.Run()
	if _, again := net.Run(); !errors.Is(again, simErr) {
		t.Fatalf("sim: the failed network ran again: %v, then %v", simErr, again)
	}

	onGosim := &failAtTwo{}
	gnet := gosim.New(graph.Path(4), func(core.NodeID) core.Protocol { return onGosim })
	defer gnet.Shutdown()
	gnet.Inject(0, "start")
	gosimErr := gnet.AwaitQuiescence(10 * time.Second)

	var s, g *core.HandlerError
	if !errors.As(simErr, &s) || !errors.As(gosimErr, &g) {
		t.Fatalf("sim %v, gosim %v: want a core.HandlerError from both", simErr, gosimErr)
	}
	if s.Node != 2 || g.Node != s.Node || g.Cause.Error() != s.Cause.Error() {
		t.Fatalf("sim %v, gosim %v: want the same node 2 and cause", s, g)
	}
	if !errors.Is(simErr, errCannotContinue) || !errors.Is(gosimErr, errCannotContinue) {
		t.Fatalf("sim %v, gosim %v: the cause is not reachable through errors.Is", simErr, gosimErr)
	}
	for name, p := range map[string]*failAtTwo{"sim": onSim, "gosim": onGosim} {
		if len(p.got) != 0 {
			t.Fatalf("%s: deliveries %q after the failure", name, p.got)
		}
	}
}

// initNote is a protocol that notes its Init.
type initNote struct {
	id   core.NodeID
	note func(string)
}

func (p *initNote) Init(core.Env)                 { p.note(fmt.Sprintf("init %d", p.id)) }
func (p *initNote) Deliver(core.Env, core.Packet) {}
func (p *initNote) LinkEvent(core.Env, core.Port) {}

// goroutine names the calling goroutine by the header of its stack trace.
func goroutine() string {
	buf := make([]byte, 64)
	header, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), "[")
	return header
}

// TestFactoryCalledInNodeOrder pins core.Factory's calling contract on both
// runtimes, the one that lets a factory carve its instances from a
// core.Slab: one call per node, in ID order, on the goroutine that builds the
// network, and every call before any node's Init.
func TestFactoryCalledInNodeOrder(t *testing.T) {
	const n = 6
	build := map[string]func(*graph.Graph, core.Factory){
		"sim":   func(g *graph.Graph, f core.Factory) { sim.New(g, f) },
		"gosim": func(g *graph.Graph, f core.Factory) { gosim.New(g, f).Shutdown() },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var log []string
			note := func(s string) {
				mu.Lock()
				log = append(log, s)
				mu.Unlock()
			}
			mk(graph.Ring(n), func(id core.NodeID) core.Protocol {
				note(fmt.Sprintf("factory %d on %s", id, goroutine()))
				return &initNote{id: id, note: note}
			})
			var want []string
			for u := range n {
				want = append(want, fmt.Sprintf("factory %d on %s", u, goroutine()))
			}
			mu.Lock()
			defer mu.Unlock()
			if len(log) != 2*n || !slices.Equal(log[:n], want) {
				t.Fatalf("calls %q, want %q and then %d Inits", log, want, n)
			}
			for _, s := range log[n:] {
				if !strings.HasPrefix(s, "init ") {
					t.Fatalf("calls %q: %q after an Init", log, s)
				}
			}
		})
	}
}

// TestInjectOutsideGraphOnBothRuntimes: Inject, StallNode, CrashNode and
// RestoreNode name a node, and one outside [0, n) is refused on both runtimes, classic and sharded sim
// alike, by a precondition panic that names it. The check runs before the
// call changes anything, so the network then runs as if it was never made:
// one valid injection is delivered once and the run ends.
func TestInjectOutsideGraphOnBothRuntimes(t *testing.T) {
	g := graph.Path(3)
	refused := func(t *testing.T, prefix string, v core.NodeID, call func()) {
		t.Helper()
		defer func() {
			want := fmt.Sprintf("at node %d, outside the graph's %d nodes", v, g.N())
			if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, prefix) || !strings.Contains(msg, want) {
				t.Errorf("panic %q, want a %q precondition naming node %d", msg, prefix, v)
			}
		}()
		call()
	}
	delivered := func(t *testing.T, m core.Metrics, p *sendOnce) {
		t.Helper()
		if m.Injections != 1 || len(p.got) != 1 {
			t.Errorf("%d injections and deliveries %q after the refused calls, want the one valid injection", m.Injections, p.got)
		}
	}
	for _, v := range []core.NodeID{7, 3, -1} {
		for name, opts := range map[string][]sim.Option{"classic": nil, "shards-2": {sim.WithShards(2)}} {
			t.Run(fmt.Sprintf("sim-%s/node-%d", name, v), func(t *testing.T) {
				p := &sendOnce{}
				net := sim.New(g, func(core.NodeID) core.Protocol { return p },
					append([]sim.Option{sim.WithDelays(1, 1)}, opts...)...)
				if len(opts) > 0 && net.ShardInfo().Shards < 2 {
					t.Fatalf("WithShards(2) did not partition: %+v", net.ShardInfo())
				}
				refused(t, "sim: Inject", v, func() { net.Inject(0, v, "outside") })
				refused(t, "sim: StallNode", v, func() { net.StallNode(v, 4, 1) })
				refused(t, "sim: CrashNode", v, func() { net.CrashNode(0, v) })
				refused(t, "sim: RestoreNode", v, func() { net.RestoreNode(0, v) })
				net.Inject(0, 1, "inside")
				if _, err := net.Run(); err != nil {
					t.Fatal(err)
				}
				delivered(t, net.Metrics(), p)
			})
		}
		t.Run(fmt.Sprintf("gosim/node-%d", v), func(t *testing.T) {
			p := &sendOnce{}
			net := gosim.New(g, func(core.NodeID) core.Protocol { return p })
			defer net.Shutdown()
			refused(t, "gosim: Inject", v, func() { net.Inject(v, "outside") })
			refused(t, "gosim: StallNode", v, func() { net.StallNode(v, 4, 1) })
			refused(t, "gosim: CrashNode", v, func() { net.CrashNode(v) })
			refused(t, "gosim: RestoreNode", v, func() { net.RestoreNode(v) })
			net.Inject(1, "inside")
			if err := net.AwaitQuiescence(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			delivered(t, net.Metrics(), p)
		})
	}
}
