package runtimetest

import (
	"errors"
	"fmt"
	"slices"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// base is the model of a row that needs no other: C = P = 1, at which every
// sharded engine partitions.
var base = Config{C: 1, P: 1}

// Rows is the contract by name; docs/MODEL.md §9 names the rows that pin each
// clause. Where the runtimes agree a row returns its Outcome.
var Rows = map[string]Row{
	// §1, §3, core.Runtime: what a handler and a driver see.
	"env": row(graph.Path(3), base, func(r *run) {
		_, timed := r.Net.(clock)
		r.Inject(1, act(func(env core.Env, _ core.Packet) error {
			port, ok := env.PortToward(2)
			if now := env.Now(); env.ID() != 1 || !ok || port.Remote != 2 || timed && now != 1 || now <= 0 || env.Rand() == nil {
				return fmt.Errorf("ID %d, PortToward(2) %+v %v, Now %d: want 1, the port to 2, P on a clock or a positive ordinal", env.ID(), port, ok, now)
			}
			if err := env.Multicast([]anr.Header{anr.OneHop(1), anr.Direct([]anr.ID{1, 1})}, "dup"); !errors.Is(err, core.ErrMulticastLinks) {
				return fmt.Errorf("two routes on one first link: %v, want core.ErrMulticastLinks", err)
			}
			return env.Multicast([]anr.Header{anr.OneHop(1), anr.OneHop(2)}, "fanout") // one send, two packets
		}))
		r.quiet()
		r.metrics("Sends", 1, "Packets", 2, "Deliveries", 2)
		p, _ := r.Protocol(1).(*probe)
		r.that(slices.Equal(r.answers, []error{nil}) && p != nil && p.id == 1 && r.Graph() == r.g && len(r.trace.Events()) > 0,
			"answers %v, Protocol(1) %v, Graph() %p of %p, %d trace events", r.answers, p, r.Graph(), r.g, len(r.trace.Events()))
	}),
	// §6: a crash downs every link of the node and a restore brings them back,
	// both ends hearing each flip; a send through the dead hub is dropped.
	"crash-restore": row(graph.Star(4), base, func(r *run) {
		r.CrashNode(0)
		r.quiet()
		r.Inject(1, send("x", anr.Direct([]anr.ID{1, 2})))
		r.quiet()
		r.that(!r.LinkUp(0, 1) && !r.LinkUp(0, 2) && !r.LinkUp(0, 3), "a link of the crashed hub is up")
		r.metrics("LinkEvents", 6, "Drops", 1, "Deliveries", 0)
		r.RestoreNode(0)
		r.quiet()
		r.that(r.LinkUp(0, 1) && r.LinkUp(0, 2) && r.LinkUp(0, 3) && r.Graph() == r.g, "a link of the restored hub is down, or Graph() is not the network's")
		r.metrics("LinkEvents", 12)
		leaf := []bool{false, true}
		r.that(slices.Equal(r.links[0], []bool{false, false, false, true, true, true}) && slices.Equal(r.links[1], leaf) && slices.Equal(r.links[2], leaf) && slices.Equal(r.links[3], leaf),
			"notifications %v, want three downs then three ups at the hub, one of each at a leaf", r.links)
	}),
	// §6, §2: each link notification is one activation, P long on a clock.
	"link-flap": row(graph.Path(3), base, func(r *run) {
		for i := range 50 {
			r.InjectLink(1, 2, i%2 == 0)
		}
		r.quiet()
		r.metrics("LinkEvents", 100, "Deliveries", 0, "Injections", 0)
		r.that(r.Metrics().Syscalls() == 100, "Syscalls = %d, want 100", r.Metrics().Syscalls())
		if b, ok := r.Net.(busyTimes); ok {
			r.that(b.BusyTimePerNode()[1] == 50 && b.BusyTimePerNode()[2] == 50, "busy %v, want 50 at both ends", b.BusyTimePerNode())
		}
	}),
	// §6: a dead link drops what reaches it, in flight on a clock; each end
	// hears down, then up.
	"link-failure": row(graph.Path(3), Config{C: 5, P: 1}, func(r *run) {
		if s, ok := r.Net.(scripted); ok {
			r.Inject(0, send("ping", anr.Direct([]anr.ID{1, 2})))
			s.SetLink(3, 1, 2, false) // the ping crosses 0-1 from t = 1 to 6
		} else {
			r.InjectLink(1, 2, false)
			r.quiet()
			r.Inject(0, send("ping", anr.Direct([]anr.ID{1, 2})))
		}
		r.quiet()
		r.metrics("Drops", 1, "Hops", 1, "Deliveries", 0, "LinkEvents", 2)
		r.InjectLink(1, 2, true)
		r.quiet()
		r.metrics("LinkEvents", 4)
		r.that(r.LinkUp(1, 2) && slices.Equal(r.links[1], []bool{false, true}) && slices.Equal(r.links[2], []bool{false, true}) && r.links[0] == nil,
			"notifications %v, want down then up at nodes 1 and 2 only", r.links)
	}),
	// §11: one link under drop, then swapped mid-run to dup, corrupt and none:
	// each fault counts once, a drop is traced with its cause, a corrupted
	// payload arrives as core.Garbled.
	"msg-faults": row(graph.Path(2), Config{C: 1, P: 1, Faults: core.MsgFaults{Drop: 1}}, func(r *run) {
		for _, next := range []core.MsgFaults{{Dup: 1}, {Corrupt: 1}, {}, {}} {
			r.Inject(0, send("ping", anr.OneHop(1)))
			r.quiet()
			r.SetMsgFaults(next)
		}
		r.metrics("FaultDrops", 1, "Drops", 0, "FaultDups", 1, "FaultCorrupts", 1, "Hops", 4, "Deliveries", 4)
		got, ev := r.at(1), r.trace.Events()
		r.that(len(got) == 4 && got[0].pkt.Payload == "ping" && got[1].pkt.Payload == "ping" && got[2].pkt.Payload == core.Garbled{} && got[3].pkt.Payload == "ping",
			"node 1 got %v, want ping twice, core.Garbled, ping", got)
		i := slices.IndexFunc(ev, func(e trace.Event) bool { return e.Kind == trace.KindFaultDrop })
		r.that(i >= 0 && ev[i].Cause == "drop" && ev[i].Node == 0, "no fault-drop event at node 0 with cause drop")
	}),
	// §7: the filter acts in transit, never at the sender or the NCU.
	"filter": row(graph.Path(3), Config{C: 1, P: 1, Filter: func(at core.NodeID, _ any) bool { return at != 1 }}, func(r *run) {
		r.Inject(0, send("ping", anr.CopyPath([]anr.ID{1, 2})))
		r.quiet()
		r.metrics("Filtered", 1, "Drops", 0, "Hops", 1, "Deliveries", 0)
		r.Inject(0, send("ping", anr.OneHop(1)))
		r.Inject(1, send("ping", anr.OneHop(2)))
		r.quiet()
		r.metrics("Filtered", 1, "Deliveries", 2)
	}),
	// §5, §2: a reply over the reverse route; on a clock the ping is done at
	// 2P + 2C and the pong at 3P + 4C, and elsewhere Now is an ordinal.
	"reverse": row(graph.Path(3), Config{C: 2, P: 3}, func(r *run) {
		pong := act(func(env core.Env, pkt core.Packet) error { return env.Send(pkt.Reverse, "pong") })
		r.Inject(0, send(pong, anr.Direct([]anr.ID{1, 2})))
		r.quiet()
		r.metrics("Hops", 4, "Deliveries", 2, "Injections", 1)
		ping, back := r.at(2), r.at(0)
		_, timed := r.Net.(clock)
		r.that(slices.Equal(r.answers, []error{nil, nil}) && len(ping) == 1 && len(back) == 1 && back[0].at > ping[0].at && (!timed || ping[0].at == 10 && back[0].at == 17 && r.Metrics().FinishTime == 17),
			"answers %v, ping %v, pong %v: want them done at 10 and 17 on a clock, else in that order", r.answers, ping, back)
	}),
	// A driver scripts only edges of its graph.
	"non-edge": row(graph.Path(3), base, func(r *run) {
		r.refused(func() { r.InjectLink(0, 2, false) }, "on non-edge 0-2")
		if s, ok := r.Net.(scripted); ok {
			r.refused(func() { s.SetLink(1, 0, 2, false) }, "on non-edge 0-2")
		}
	}),
	// Env.Fail: the run returns node 2's core.HandlerError, and so do a
	// second and a third run, which trace nothing; nothing sent after it is
	// delivered.
	"fail": func(e Engine) (Outcome, error) {
		_, err := exec(e, graph.Path(4), base, func(r *run) {
			r.Inject(0, send(act(func(env core.Env, _ core.Packet) error {
				env.Fail(errCannotContinue)
				return env.Send(anr.OneHop(2), "after the failure")
			}), anr.Direct([]anr.ID{1, 2})))
			var he *core.HandlerError
			first, again := r.Quiesce(), r.Quiesce()
			r.that(errors.As(first, &he) && he.Node == 2 && errors.Is(first, errCannotContinue) && errors.Is(again, first), "runs %v, then %v: want node 2's failure twice", first, again)
			traced := len(r.trace.Events())
			third := r.Quiesce()
			r.that(errors.Is(third, first) && len(r.trace.Events()) == traced, "a third run returned %v and grew the trace from %d to %d events", third, traced, len(r.trace.Events()))
			r.that(len(r.at(3)) == 0, "node 3 was handed %v after the failure", r.at(3))
		})
		return nil, err // what the network counted after a failure is unspecified
	},
}

var errCannotContinue = errors.New("runtimetest: handler cannot continue")

// contractRoute is one send on the path 0-1-2-3 at dmax 3, answered as
// stated: node 0 has link 1; nodes 1 and 2 link 1 toward 0 and link 2 toward
// 3; node 3 link 1.
type contractRoute struct {
	name    string
	src     core.NodeID
	send    any              // anr.Header for Send, []anr.Header for Multicast
	down    [][2]core.NodeID // edges taken down before the send
	want    error            // the sentinel a refusal wraps; nil with refused set means any error
	refused bool
	faults  core.MsgFaults // a saturated row's profile
	metrics []any          // fields and values, as run.metrics takes them
	perNode []int          // how many packets each node is handed, if stated
}

var copy3 = anr.CopyPath([]anr.ID{1, 2, 2})

var contractRoutes = []contractRoute{
	{name: "empty", send: anr.Header{}, want: anr.ErrEmptyHeader, refused: true},
	{name: "unterminated", send: anr.Header{{Link: 1}}, want: anr.ErrNoTerminator, refused: true},
	{name: "ncu-mid-route", send: anr.Header{{Link: 1}, {Link: anr.NCU}, {Link: 2}, {Link: anr.NCU}}, want: anr.ErrEarlyNCU, refused: true},
	{name: "huge-link-id", send: anr.Direct([]anr.ID{1 << 20}), want: anr.ErrIDRange, refused: true},
	{name: "no-such-link-first", send: anr.Direct([]anr.ID{9}), refused: true},
	{name: "no-such-link-later", send: anr.Direct([]anr.ID{1, 9}), refused: true},
	// Behind a dead link, where a walk that resolves links only as it reaches
	// them never looks: the route is refused whole all the same.
	{name: "no-such-link-behind-dead-link", send: anr.Direct([]anr.ID{1, 9}), down: [][2]core.NodeID{{0, 1}}, refused: true},
	{name: "dmax", send: anr.Direct([]anr.ID{1, 2, 2, 1}), want: anr.ErrPathTooLong, refused: true, metrics: []any{"DmaxViolations", 1, "Packets", 0}},
	{name: "dead-first-link", send: anr.Direct([]anr.ID{1, 2}), down: [][2]core.NodeID{{0, 1}}, metrics: []any{"Drops", 1, "Hops", 0}},
	{name: "copy-then-dead-link", send: copy3, down: [][2]core.NodeID{{1, 2}}, metrics: []any{"Drops", 1, "CopyDeliveries", 1}},
	{name: "copy-path", send: copy3, metrics: []any{"Deliveries", 3, "CopyDeliveries", 2, "Hops", 3, "Packets", 1, "Sends", 1, "HeaderBits", 12, "MaxHeaderHops", 3}, perNode: []int{0, 1, 1, 1}},
	{name: "multicast-repeated-first-link", src: 1, send: []anr.Header{anr.Direct([]anr.ID{2, 2}), anr.OneHop(2)}, want: core.ErrMulticastLinks, refused: true},
	{name: "multicast-bad-second-route", src: 1, send: []anr.Header{anr.OneHop(1), anr.Direct([]anr.ID{2, 9})}, refused: true},
	{name: "multicast-no-routes", src: 1, send: []anr.Header{}},
}

// saturated are the fault kinds at probability 1 on a three-hop copy path,
// each counted where it fired; duplicated behind a dead last link, each
// branch is one drop.
var saturated = []contractRoute{
	{name: "drop", faults: core.MsgFaults{Drop: 1}, metrics: []any{"FaultDrops", 1, "Deliveries", 0}},
	{name: "dup", faults: core.MsgFaults{Dup: 1}, metrics: []any{"FaultDups", 7, "Hops", 14, "Deliveries", 14}},
	{name: "corrupt", faults: core.MsgFaults{Corrupt: 1}, metrics: []any{"FaultCorrupts", 3, "Deliveries", 3}},
	{name: "jitter", faults: core.MsgFaults{Jitter: 1, JitterMax: 3}, metrics: []any{"FaultJitters", 3}},
	{name: "reorder", faults: core.MsgFaults{Reorder: 1, ReorderWindow: 3}, metrics: []any{"FaultReorders", 3}},
	{name: "slowdown", faults: core.MsgFaults{Slowdown: 1, SlowFactor: 2, SlowMax: 3}, metrics: []any{"FaultSlowdowns", 3}},
	{name: "dup-behind-dead-link", faults: core.MsgFaults{Dup: 1}, down: [][2]core.NodeID{{2, 3}}, metrics: []any{"FaultDups", 3, "Drops", 4}},
}

// sendOn answers cr on e under cfg: one answer, refused or not and wrapping
// the named sentinel; every message traced first as its send; each copy
// handed the rest of its route; a corrupted payload handed as core.Garbled; a
// per-node ledger that matches the probes; and, on a clock with no link down
// and no duplicate, a node d hops out done within [2P + dC, 2P + d(C +
// DelayBound)], the last of them at the finish time.
func sendOn(e Engine, cr contractRoute, cfg Config) (Outcome, error) {
	cfg.Dmax = 3
	return exec(e, graph.Path(4), cfg, func(r *run) {
		for _, d := range cr.down {
			r.InjectLink(d[0], d[1], false)
		}
		r.quiet()
		r.Inject(cr.src, send("probe", cr.send))
		r.quiet()
		r.that(len(r.answers) == 1 && (r.answers[0] != nil) == cr.refused && (cr.want == nil || errors.Is(r.answers[0], cr.want)),
			"%s: answered %v, want one answer, refused %v, %v", cr.name, r.answers, cr.refused, cr.want)
		r.metrics(cr.metrics...)
		r.that(r.PortMap().IDWidth() == 2, "%s: ID width %d, want 2", cr.name, r.PortMap().IDWidth())
		for v, n := range cr.perNode {
			r.that(len(r.at(core.NodeID(v))) == n, "%s: node %d was handed %v, want %d packets", cr.name, v, r.at(core.NodeID(v)), n)
		}
		seen := map[int64]bool{}
		for _, ev := range r.trace.Events() {
			r.that(ev.Msg == 0 || seen[ev.Msg] || ev.Kind == trace.KindSend, "%s: message %d is first traced as %+v, not its send", cr.name, ev.Msg, ev)
			seen[ev.Msg] = true
		}
		h, _ := cr.send.(anr.Header)
		_, timed := r.Net.(clock)
		timed = timed && cr.down == nil && cfg.Faults.Dup == 0
		last := cfg.P // the injected activation's
		for _, a := range r.got {
			d := core.Time(max(a.node-cr.src, cr.src-a.node))
			last = max(last, a.at)
			r.that(a.pkt.ForwardedOn == anr.NCU || a.pkt.Remaining.HopCount() == h.HopCount()-int(d)-1, "%s: node %d was handed %v", cr.name, a.node, a.pkt.Remaining)
			r.that(cfg.Faults.Corrupt < 1 || a.pkt.Payload == core.Garbled{}, "%s: node %d was handed %#v, want core.Garbled", cr.name, a.node, a.pkt.Payload)
			r.that(!timed || a.at >= 2*cfg.P+d*cfg.C && a.at <= 2*cfg.P+d*(cfg.C+cfg.Faults.DelayBound(cfg.C)), "%s: node %d done at %d", cr.name, a.node, a.at)
		}
		r.that(!timed || r.Metrics().FinishTime == last, "%s: FinishTime %d, want %d", cr.name, r.Metrics().FinishTime, last)
		if p, ok := r.Net.(perNode); ok {
			for v, n := range p.DeliveriesPerNode() {
				r.that(int(n) == len(r.at(core.NodeID(v))), "%s: DeliveriesPerNode %v", cr.name, p.DeliveriesPerNode())
			}
		}
	})
}

func init() {
	// The send side's contract table, faults off and on (every traversal
	// jittered, so the counts are not luck), at C = 1 and, on the engines
	// that run it, at C = 0, where it must see the same.
	for name, faults := range map[string]core.MsgFaults{"faults-off": {}, "faults-on": {Jitter: 1, JitterMax: 2}} {
		Rows["routes/"+name] = func(e Engine) (Outcome, error) {
			var out Outcome
			var errs []error
			for _, cr := range contractRoutes {
				o, err := sendOn(e, cr, Config{C: 1, P: 1, Faults: faults})
				o0, err0 := sendOn(e, cr, Config{C: 0, P: 1, Faults: faults})
				if errors.Is(err0, ErrRefused) {
					o0, err0 = o, nil
				}
				if err0 == nil && !slices.Equal(o, o0) {
					err0 = fmt.Errorf("%s: at C = 0 the outcome is\n%q\nnot C = 1's\n%q", cr.name, o0, o)
				}
				errs = append(errs, err, err0)
				for _, line := range o {
					out = append(out, cr.name+": "+line)
				}
			}
			return out, errors.Join(errs...)
		}
	}
	for _, cr := range saturated {
		cr.send = copy3
		Rows["saturated/"+cr.name] = func(e Engine) (Outcome, error) { return sendOn(e, cr, Config{C: 1, P: 1, Faults: cr.faults}) }
	}
	// A driver names only nodes of its graph: a call outside [0, n) panics
	// naming the node before it changes anything, so one valid injection then
	// runs as if the network was new.
	for _, v := range []core.NodeID{7, 3, -1} {
		Rows[fmt.Sprintf("outside-graph/node-%d", v)] = row(graph.Path(3), base, func(r *run) {
			at := fmt.Sprintf(" at node %d, outside the graph's 3 nodes", v)
			r.refused(func() { r.Inject(v, "outside") }, "Inject"+at)
			r.refused(func() { r.StallNode(v, 4, 1) }, "StallNode"+at)
			r.refused(func() { r.CrashNode(v) }, "CrashNode"+at)
			r.refused(func() { r.RestoreNode(v) }, "RestoreNode"+at)
			r.Inject(1, "inside")
			r.quiet()
			r.metrics("Injections", 1, "Deliveries", 0, "LinkEvents", 0)
		})
	}
}
