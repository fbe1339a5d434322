package sim_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
	"fastnet/internal/traffic"
)

// A scenario is one sim run written as a value: a graph, a protocol from a
// fixed list, the model's options and a driver script. play builds it on one
// engine configuration and returns what a driver can observe; the contract
// table holds every configuration of one stream contract to the same
// observables, errors included:
//
//	classic ≡ WithFixedRing(64) ≡ WithFixedRing(8192) ≡ the reference engine
//	WithShards(1) ≡ WithShards(2|3|4|8) ≡ WithShards(1) + WithFixedRing(64)
//
// The sim tests that hold one engine to another (the golden streams, the
// ring, cut-through and shard differentials, the driver clock, capacity and
// stalls) are rows of this table, and the fuzzers decode their input into one
// scenario and check the whole of it.
type scenario struct {
	name    string
	graph   graphSpec
	proto   protoKind
	mode    topology.Mode // maintainer
	full    bool          // maintainer: broadcast everything known
	preload int           // maintainer: nodes u with u % preload == 0 start knowing every record; 0, none
	flows   int           // trains: flows of 16 packets between random endpoints
	burst   int           // backlog: packets a leaf sends the hub per injection

	c, p     core.Time
	random   bool
	seed     int64
	dmax     int
	faults   core.MsgFaults
	capacity core.Capacity
	filter   core.HopFilter
	budget   int64
	steps    []step
}

// graphSpec is a graph family and its seed.
type graphSpec struct {
	family  family
	n       int     // nodes; grid: the side
	p       float64 // gnp: edge probability
	seed    int64
	isolate uint8 // gnp: strip every edge of node u < 8 whose bit u is set
}

type family uint8

const (
	gnp family = iota
	tree
	star
	grid
	path
	ring
)

func (gs graphSpec) build() *graph.Graph {
	switch gs.family {
	case tree:
		return graph.RandomTree(gs.n, gs.seed)
	case star:
		return graph.Star(gs.n)
	case grid:
		return graph.Grid(gs.n, gs.n)
	case path:
		return graph.Path(gs.n)
	case ring:
		return graph.Ring(gs.n)
	}
	g := graph.GNP(gs.n, gs.p, gs.seed)
	for u := 0; u < min(gs.n, 8); u++ {
		if gs.isolate&(1<<u) != 0 {
			for _, v := range slices.Clone(g.Neighbors(graph.NodeID(u))) {
				g.RemoveEdge(graph.NodeID(u), v)
			}
		}
	}
	return g
}

// protoKind is the fixed list of protocols a scenario runs; each names what
// an injection hands a node.
type protoKind uint8

const (
	maintainer protoKind = iota // topology.NewMaintainer: a topology.Trigger
	elect                       // election.New: an election.Start
	trains                      // trainNode: nothing; every flow starts at t = 0
	backlog                     // hubFeeder on a star: a burst for the hub
	floodFail                   // floodFailer: a token to flood; nodes 7 and 56 fail the run
)

// A step is one driver call. Times count from zero, or from the clock when
// rel is set; a run step states the error it must return.
type step struct {
	op            op
	at            core.Time // inject, setLink, crash, restore: the instant; runUntil: the deadline
	rel           bool
	node          core.NodeID // inject, crash, restore, stall
	edge          int         // setLink: index into the graph's edges (modulo their number); midEdge, the middle one
	up            bool
	window, extra core.Time // stall
	faults        core.MsgFaults
	want          error // run, runUntil: nil, sim.ErrBackward, sim.ErrEventBudget or errHandler
}

type op uint8

const (
	inject op = iota
	setLink
	crash
	restore
	stall
	setFaults
	runUntil
	run
)

const midEdge = -1

// errHandler stands for any *core.HandlerError in a step's want.
var errHandler = errors.New("a handler's Env.Fail")

func injectAt(at core.Time, v core.NodeID) step { return step{op: inject, at: at, node: v} }
func link(at core.Time, edge int, up bool) step { return step{op: setLink, at: at, edge: edge, up: up} }
func runTo(deadline core.Time) step             { return step{op: runUntil, at: deadline} }
func runAll() step                              { return step{op: run} }

// injectEvery injects at nodes 0, stride, 2·stride, ... < n, node u at u % mod.
func injectEvery(n, stride int, mod core.Time) []step {
	var s []step
	for u := 0; u < n; u += stride {
		s = append(s, injectAt(core.Time(u)%mod, core.NodeID(u)))
	}
	return s
}

// script is the steps in order.
func script(parts ...any) []step {
	var s []step
	for _, p := range parts {
		switch p := p.(type) {
		case step:
			s = append(s, p)
		case []step:
			s = append(s, p...)
		}
	}
	return s
}

// An engine is one configuration of the runtime: production with options,
// or the reference engine (reference_test.go).
type engine struct {
	name string
	p    int // WithShards(p); p >= 2 must partition
	ring int // WithFixedRing(ring) if > 0
	ref  bool
}

var (
	classicSide = []engine{{name: "classic"}, {name: "ring-64", ring: 64}, {name: "ring-8192", ring: 8192}, {name: "reference", ref: true}}
	shardSide   = []engine{{name: "shards-1", p: 1}, {name: "shards-2", p: 2}, {name: "shards-3", p: 3}, {name: "shards-4", p: 4}, {name: "shards-8", p: 8}, {name: "shards-1-ring-64", p: 1, ring: 64}}
)

// claims reports whether s runs on e: the reference engine has no capacity
// model, and the event budget is one core's, so p >= 2 claims a budget only
// at C = 0, where WithShards(p) runs on one serial shard.
func (s scenario) claims(e engine) bool {
	switch {
	case e.ref:
		return !s.capacity.Enabled()
	case e.p >= 2:
		return s.c == 0 || s.budget == 0
	}
	return true
}

// runtime is what play drives: *sim.Network or *sim.Reference.
type runtime interface {
	PortMap() *core.PortMap
	Protocol(core.NodeID) core.Protocol
	Now() core.Time
	Inject(t core.Time, v core.NodeID, payload any)
	SetLink(t core.Time, u, v core.NodeID, up bool)
	CrashNode(t core.Time, v core.NodeID)
	RestoreNode(t core.Time, v core.NodeID)
	StallNode(v core.NodeID, window, extra core.Time)
	SetMsgFaults(core.MsgFaults)
	Run() (core.Time, error)
	RunUntil(core.Time) (core.Time, error)
	Metrics() core.Metrics
	DeliveriesPerNode() []int64
	BusyTimePerNode() []core.Time
	SchedStats() sim.SchedStats
}

// obs is what a driver observes of one play. The table compares all of it
// but info, window and sched, which are the engine's own, save its fused hops
// (the hops walked inline at C = 0).
type obs struct {
	steps      []stepObs // after each run step
	metrics    core.Metrics
	deliveries []int64
	busy       []core.Time
	events     []trace.Event
	sched      sim.SchedStats
	info       sim.ShardInfo
	window     int  // the calendar ring's span after the run
	failed     bool // a run step returned a handler's Env.Fail
}

type stepObs struct {
	now, finish core.Time
	events      int64 // SchedStats().Events
	metrics     core.Metrics
	err         string
}

// finish is what the last run step returned.
func (o obs) finish() core.Time { return o.steps[len(o.steps)-1].finish }

// play builds s on e (extra options last) and runs its script. A run step
// must return the error it states; one refused with ErrBackward, or run after
// a failure, must change nothing a driver sees.
func play(t testing.TB, s scenario, e engine, extra ...sim.Option) obs {
	t.Helper()
	g := s.graph.build()
	buf := trace.NewSerial(0)
	opts := []sim.Option{sim.WithDelays(s.c, s.p), sim.WithSeed(s.seed), sim.WithDmax(s.dmax), sim.WithTrace(buf),
		sim.WithMsgFaults(s.faults), sim.WithShards(e.p), sim.WithHopFilter(s.filter)}
	if s.random {
		opts = append(opts, sim.WithRandomDelays())
	}
	if s.capacity.Enabled() {
		opts = append(opts, sim.WithCapacity(s.capacity))
	}
	if s.budget > 0 {
		opts = append(opts, sim.WithEventBudget(s.budget))
	}
	if e.ring > 0 {
		opts = append(opts, sim.WithFixedRing(e.ring))
	}
	opts = append(opts, extra...)
	var net runtime
	var prod *sim.Network
	if e.ref {
		net = sim.NewReference(g, s.factory(), opts...)
	} else {
		prod = sim.New(g, s.factory(), opts...)
		net = prod
		// p >= 2 partitions at C >= 1 and falls back to one serial shard at
		// C = 0, which has no lookahead to window by.
		if got := prod.ShardInfo().Shards; e.p >= 2 && (got >= 2) != (s.c > 0) {
			t.Fatalf("%s: WithShards(%d) at C = %d ran on %d shards", e.name, e.p, s.c, got)
		}
	}
	s.preamble(g, net)
	edges := g.Edges()
	var o obs
	var failed error
	for i, st := range s.steps {
		at := st.at
		if st.rel {
			at += net.Now()
		}
		switch st.op {
		case inject:
			net.Inject(at, st.node, s.payload())
		case setLink:
			ed := edges[len(edges)/2]
			if st.edge != midEdge {
				ed = edges[st.edge%len(edges)]
			}
			net.SetLink(at, ed.U, ed.V, st.up)
		case crash:
			net.CrashNode(at, st.node)
		case restore:
			net.RestoreNode(at, st.node)
		case stall:
			net.StallNode(st.node, st.window, st.extra)
		case setFaults:
			net.SetMsgFaults(st.faults)
		case runUntil, run:
			before := snapshot(net, buf)
			var so stepObs
			var err error
			if st.op == run {
				so.finish, err = net.Run()
			} else {
				so.finish, err = net.RunUntil(at)
			}
			so.now, so.events, so.metrics = net.Now(), net.SchedStats().Events, net.Metrics()
			if err != nil {
				so.err = err.Error()
			}
			o.steps = append(o.steps, so)
			want := st.want
			if failed != nil {
				want = failed
			}
			var he *core.HandlerError
			switch {
			case want == errHandler && errors.As(err, &he):
				failed = he
			case !errors.Is(err, want) || (err == nil) != (want == nil):
				t.Fatalf("%s on %s: step %d returned %v, want %v", s.name, e.name, i, err, want)
			}
			if errors.Is(err, sim.ErrBackward) && (!strings.Contains(so.err, fmt.Sprint(at)) || !strings.Contains(so.err, fmt.Sprint(so.now))) {
				t.Errorf("%s on %s: %q names neither the deadline %d nor the clock %d", s.name, e.name, so.err, at, so.now)
			}
			if after := snapshot(net, buf); (errors.Is(err, sim.ErrBackward) || failed != nil && want == failed) && after != before {
				t.Errorf("%s on %s: refused step %d changed the network: %s -> %s", s.name, e.name, i, before, after)
			}
		}
	}
	st := net.SchedStats()
	o.metrics, o.sched, o.failed = net.Metrics(), st, failed != nil
	o.deliveries, o.busy, o.events = net.DeliveriesPerNode(), net.BusyTimePerNode(), buf.Events()
	if prod != nil {
		o.info, o.window = prod.ShardInfo(), prod.RingWindow()
	}
	return o
}

// snapshot is what a refused call must leave as it was.
func snapshot(net runtime, buf *trace.Serial) string {
	return fmt.Sprintf("clock %d, %+v, %d events, %d traced", net.Now(), net.Metrics(), net.SchedStats().Events, len(buf.Events()))
}

func (s scenario) factory() core.Factory {
	switch s.proto {
	case elect:
		stats := &election.Stats{}
		return func(id core.NodeID) core.Protocol { return election.New(id, stats) }
	case trains:
		return func(core.NodeID) core.Protocol { return trainNode{} }
	case backlog:
		return func(core.NodeID) core.Protocol { return hubFeeder{} }
	case floodFail:
		return func(id core.NodeID) core.Protocol { return &floodFailer{ticks: map[core.NodeID]int{7: 2, 56: 1}[id]} }
	}
	return topology.NewMaintainer(s.mode, s.full, nil)
}

func (s scenario) payload() any {
	switch s.proto {
	case maintainer:
		return topology.Trigger{}
	case elect:
		return election.Start{}
	case backlog:
		return burst(s.burst)
	case floodFail:
		return "start"
	}
	return nil
}

// preamble is what the protocol starts with before the script: the
// maintainers' preloaded records, the trains' flows.
func (s scenario) preamble(g *graph.Graph, net runtime) {
	switch {
	case s.proto == maintainer && s.preload > 0:
		recs := topology.RecordsForGraph(g, net.PortMap(), nil)
		for u := 0; u < g.N(); u += s.preload {
			net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
		}
	case s.proto == trains:
		flows := traffic.RandomFlows(g, s.flows, 16, s.seed)
		pairs := make([][2]core.NodeID, len(flows))
		for i, f := range flows {
			pairs[i] = [2]core.NodeID{f.Src, f.Dst}
		}
		routes, _ := net.PortMap().RoutePairs(g, pairs)
		for i, f := range flows {
			if routes[i] != nil {
				net.Inject(0, f.Src, train{routes[i], f.Packets})
			}
		}
	}
}

// diverge names the first observable in which b differs from a, or "".
// Where b ran on several shards, a cut edge's link flip is one event on each
// of its two shards, so event counts go uncompared, and after an Env.Fail
// each shard has stopped at its own first failure, so only the errors are.
func diverge(a, b obs, parallel bool) string {
	if parallel {
		a, b = a.forShards(), b.forShards()
	}
	if a.metrics != b.metrics {
		am, bm := reflect.ValueOf(a.metrics), reflect.ValueOf(b.metrics)
		for i := range am.NumField() {
			if x, y := am.Field(i).Interface(), bm.Field(i).Interface(); x != y {
				return fmt.Sprintf("metrics.%s: %v, %v", am.Type().Field(i).Name, x, y)
			}
		}
	}
	for i := range max(len(a.steps), len(b.steps)) {
		if i >= len(a.steps) || i >= len(b.steps) || a.steps[i] != b.steps[i] {
			return fmt.Sprintf("run step %d: %+v, %+v", i, a.steps[min(i, len(a.steps)-1)], b.steps[min(i, len(b.steps)-1)])
		}
	}
	if a.sched.FusedHops != b.sched.FusedHops {
		return fmt.Sprintf("fused hops: %d, %d", a.sched.FusedHops, b.sched.FusedHops)
	}
	for u := range a.deliveries {
		if a.deliveries[u] != b.deliveries[u] || a.busy[u] != b.busy[u] {
			return fmt.Sprintf("node %d: %d deliveries, busy %d; %d deliveries, busy %d", u, a.deliveries[u], a.busy[u], b.deliveries[u], b.busy[u])
		}
	}
	for i := range max(len(a.events), len(b.events)) {
		if i >= len(a.events) || i >= len(b.events) || a.events[i] != b.events[i] {
			return fmt.Sprintf("trace event %d of %d, %d: %+v, %+v", i, len(a.events), len(b.events), eventAt(a.events, i), eventAt(b.events, i))
		}
	}
	return ""
}

// forShards is what the shard-mode contract fixes at p >= 2: after a
// handler's failure, only each run step's error and clock.
func (o obs) forShards() obs {
	steps := make([]stepObs, len(o.steps))
	for i, st := range o.steps {
		steps[i] = stepObs{now: st.now, err: st.err}
		if !o.failed {
			steps[i].finish, steps[i].metrics = st.finish, st.metrics
		}
	}
	if o.failed {
		return obs{steps: steps}
	}
	o.steps = steps
	return o
}

func eventAt(evs []trace.Event, i int) any {
	if i < len(evs) {
		return evs[i]
	}
	return "none"
}

// digest renders the trace, metrics line, finish time and per-node vectors
// as one canonical byte stream and hashes it: the golden files pin it.
func (o obs) digest() string {
	h := sha256.New()
	for _, e := range o.events {
		fmt.Fprintf(h, "%d %d %d %d %d %s\n", e.Kind, e.Time, e.Node, e.Act, e.Msg, e.Cause)
	}
	fmt.Fprintf(h, "metrics %s\n", o.metrics)
	fmt.Fprintf(h, "finish %d\n", o.finish())
	fmt.Fprintf(h, "deliveries %v\n", o.deliveries)
	fmt.Fprintf(h, "busy %v\n", o.busy)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// table plays s on every engine of side that it claims and holds each to
// the first; it returns every play by engine name.
func table(t testing.TB, s scenario, side ...engine) map[string]obs {
	t.Helper()
	got := map[string]obs{}
	first := ""
	for _, e := range side {
		if !s.claims(e) {
			continue
		}
		got[e.name] = play(t, s, e)
		if first == "" {
			first = e.name
		} else if d := diverge(got[first], got[e.name], got[e.name].info.Shards >= 2); d != "" {
			t.Errorf("%s: %s and %s diverge at %s", s.name, first, e.name, d)
		}
	}
	return got
}

// both checks s on both sides of the table and returns classic's play and
// WithShards(1)'s.
func both(t testing.TB, s scenario) [2]obs {
	t.Helper()
	return [2]obs{table(t, s, classicSide...)["classic"], table(t, s, shardSide...)["shards-1"]}
}

// --- the protocols ---

// train is one flow: its source sends the packets back to back down the
// route's links, in one activation.
type train struct {
	links   []anr.ID
	packets int
}

type trainNode struct{}

func (trainNode) Init(core.Env)                 {}
func (trainNode) LinkEvent(core.Env, core.Port) {}
func (trainNode) Deliver(env core.Env, pkt core.Packet) {
	if tr, ok := pkt.Payload.(train); ok {
		h := anr.Direct(tr.links)
		for i := range tr.packets {
			if err := env.Send(h, i); err != nil {
				env.Fail(err)
				return
			}
		}
	}
}

// burst asks a leaf of a star to send that many packets to hub 0.
type burst int

// hubFeeder sends a burst it is handed to the hub back to back, one packet
// per send; what arrives is only counted.
type hubFeeder struct{}

func (hubFeeder) Init(core.Env)                 {}
func (hubFeeder) LinkEvent(core.Env, core.Port) {}
func (hubFeeder) Deliver(env core.Env, pkt core.Packet) {
	k, _ := pkt.Payload.(burst)
	hub, _ := env.PortToward(0)
	for i := range int(k) {
		if err := env.Send(anr.OneHop(hub.Local), i); err != nil {
			env.Fail(err)
			return
		}
	}
}

// floodFailer floods a token over every port; a node with ticks > 0 then
// spends that many self-addressed activations and fails the run.
type floodFailer struct {
	ticks int
	seen  bool
}

type failTick struct{}

var errCannotContinue = errors.New("flood: cannot continue")

func (p *floodFailer) Init(core.Env)                 {}
func (p *floodFailer) LinkEvent(core.Env, core.Port) {}
func (p *floodFailer) Deliver(env core.Env, pkt core.Packet) {
	if _, ok := pkt.Payload.(failTick); ok {
		if p.ticks--; p.ticks == 0 {
			env.Fail(errCannotContinue)
			return
		}
	} else if p.seen {
		return
	} else {
		p.seen = true
		var hs []anr.Header
		for _, port := range env.Ports() {
			hs = append(hs, anr.OneHop(port.Local))
		}
		if err := env.Multicast(hs, "flood"); err != nil {
			env.Fail(err)
			return
		}
	}
	if p.ticks > 0 {
		_ = env.Send(anr.Local(), failTick{})
	}
}
