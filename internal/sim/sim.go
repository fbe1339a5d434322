// Package sim is the deterministic discrete-event runtime for fastnet
// protocols. It realizes the paper's delay model directly: every link
// traversal costs a hardware delay bounded by C, every NCU activation costs
// a software delay bounded by P, and the single processor per node
// serializes activations. With exact delays (the default) a run is a
// worst-case execution, which is what the paper's time-complexity statements
// quantify over; with randomized delays a run samples an asynchronous
// execution.
//
// The event core is allocation-free on the steady-state hot path: an event
// is one compact tagged record (activation / link event / injection / link
// flip / hop) stored by value in the FIFO of its instant, and every FIFO
// draws fixed-size chunks from one per-core pool, so scheduling one of the
// up-to-50M events of a run costs no closure, no interface boxing, no
// per-event heap allocation, and events that dispatch together sit together
// in memory.
//
// What a hop does is stated once in core (core.StepHop, core.MsgFaults.Cross);
// this package gives it time, and applies the paper's own cost measure to
// itself: a hop that takes no time (C = 0, no jitter pending) is not an
// event, the walk continuing inline, depth-first, inside the event that
// launched it (hop.go), so simulator wall-clock scales with system-call
// complexity (NCU activations) rather than communication complexity (hops).
// Everything that does take time waits in the spine (queue.go): a same-time
// FIFO lane, a calendar ring auto-sized from the configured delay envelope
// (hardware C, software P, MsgFaults.DelayBound; regrown if SetMsgFaults
// widens it, and doubled when an NCU backlog pushes an event just past it)
// and an overflow heap for what lies farther out, dispatched in strict
// (t, seq) order — see docs/PERF.md. The clock only moves forward: RunUntil
// refuses a deadline behind it with ErrBackward. queue_test.go proves the
// spine against a single binary heap; reference_test.go is a naive engine of
// the classic stream contract, and scenario_test.go's contract table holds
// production to it trace for trace (and shard mode at every p to one shard),
// on scenarios written once and played on every engine; golden_test.go pins
// both event streams byte for byte.
//
// The package is four files along those seams: queue.go the spine, hop.go
// the timed hop loop, node.go nodes and NCU activations, sim.go options,
// construction and the driver API (shard.go and capacity.go add the sharded
// engine and the finite-resource model).
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// ErrEventBudget is returned by Run when the event budget is exhausted,
// which almost always means a protocol is looping.
var ErrEventBudget = errors.New("sim: event budget exhausted")

// ErrBackward is returned by RunUntil for a deadline behind the clock: the
// simulated clock only moves forward.
var ErrBackward = errors.New("sim: deadline behind the clock")

// noDeadline is Run's deadline: no event lies past it.
const noDeadline = core.Time(math.MaxInt64)

type config struct {
	hwDelay     core.Time // C
	swDelay     core.Time // P
	randomize   bool
	seed        int64
	dmax        int
	sink        trace.Sink
	eventBudget int64
	filter      core.HopFilter
	faults      core.MsgFaults
	cap         core.Capacity // finite NCU queues + link token buckets; zero = off
	ringWindow  int           // 0 = auto-size from the delay envelope; > 0 = fixed (tests only, see export_test.go)
	shards      int           // 0 = classic; >= 1 = shard mode
	totals      *SchedTotals  // where the network adds its scheduler counters; nil = nowhere
}

// Option configures a Network.
type Option func(*config)

// WithDelays sets the hardware (per hop) and software (per activation)
// delays. In exact mode these are the delays, not just bounds.
func WithDelays(c, p core.Time) Option {
	return func(cf *config) { cf.hwDelay, cf.swDelay = c, p }
}

// WithRandomDelays draws each hardware delay uniformly from [1, C] (0 when
// C == 0) and each software delay from [1, P], modelling an asynchronous
// execution whose delays respect the bounds. Note that random hardware
// delays may reorder packets on a link; protocols that rely on FIFO links
// (§5 of the paper) should use exact delays.
func WithRandomDelays() Option {
	return func(cf *config) { cf.randomize = true }
}

// WithSeed seeds all random sources. Runs are reproducible per seed.
func WithSeed(seed int64) Option {
	return func(cf *config) { cf.seed = seed }
}

// WithDmax sets the model's maximal ANR path length; 0 disables the check.
func WithDmax(d int) Option {
	return func(cf *config) { cf.dmax = d }
}

// WithTrace attaches a trace sink.
func WithTrace(s trace.Sink) Option {
	return func(cf *config) { cf.sink = s }
}

// WithEventBudget overrides the runaway-protocol guard (default 50M events).
// The budget is per event core: under WithShards each shard counts its own
// events against it, so where a sharded run trips it depends on the shard
// count.
func WithEventBudget(n int64) Option {
	return func(cf *config) { cf.eventBudget = n }
}

// WithHopFilter installs a programmable switching filter — the paper's
// extended hardware model ("update of a stored variable, table lookup and
// compare function", §2/§6). The filter runs at hardware speed in every
// transit SS (not the sender's, and never on the NCU terminator); returning
// false discards the packet silently.
func WithHopFilter(f core.HopFilter) Option {
	return func(cf *config) { cf.filter = f }
}

// WithMsgFaults enables the lossy-link model: each live-link traversal may
// drop, duplicate, corrupt, or delay the packet per the profile. All rolls
// come from a dedicated source derived from the seed, so runs stay
// reproducible bit for bit.
func WithMsgFaults(f core.MsgFaults) Option {
	return func(cf *config) { cf.faults = f }
}

var _ core.Runtime = (*Network)(nil)

// Network is a simulated network: a graph, one protocol instance per node,
// and the event queue.
type Network struct {
	g        *graph.Graph
	pm       *core.PortMap
	cfg      config
	sp       spine    // the clock and every pending event
	hops     hopArena // reverse-route buffers of the packets this core launches
	seq      uint64
	nodes    []node
	links    core.Links // live link state; a shard child shares the table and writes the rows it owns
	rng      *rand.Rand // hardware delays; in shard mode, draws from whichever stream pcg points at
	faultRng *rand.Rand // classic lossy-link rolls (separate stream: enabling faults must not perturb delay draws)

	metrics core.Metrics
	perNode []int64        // deliveries per node
	busy    []core.Time    // accumulated NCU busy time per node
	pendAct []int32        // per-node pending-activation backlog; nil unless Capacity.NCUQueue > 0
	linkTok [][]linkBucket // per-node, per-port token buckets; nil unless Capacity.LinkRate > 0
	actSeq  int64
	msgSeq  int64
	failed  *core.HandlerError // the first Env.Fail of a handler on this core

	// Shard-mode state (see shard.go and docs/PERF.md): event keys, draws and
	// labels come from per-node streams, so every observable is invariant
	// under the shard count. Classic mode leaves it unused.
	shardMode bool
	shardID   int32
	streams   []nodeStreams  // per-node draw streams and counters, shared by the child shards
	pcg       pcgSource      // rng's source (hop.go)
	assign    []int32        // node -> shard; nil unless a multi-shard child
	outbox    [][]timedEvent // per-target-shard boundary packets awaiting the barrier
	scriptCtr *uint64        // shared driver-event ordinal (sorts before all node keys)
	curOrigin int32          // node whose dispatch is executing; -1 in driver context
	group     *shardGroup    // non-nil on the facade of a multi-shard network
	tb        *traceBuf      // this core's private trace buffer (shard mode)
	userSink  trace.Sink     // the caller's sink, fed by the merged flush
}

// New builds a network over g, instantiating one protocol per node via f and
// calling Init on each.
func New(g *graph.Graph, f core.Factory, opts ...Option) *Network {
	cfg := config{
		hwDelay:     0,
		swDelay:     1,
		seed:        1,
		sink:        trace.Discard{},
		eventBudget: 50_000_000,
	}
	for _, o := range opts {
		o(&cfg)
	}
	pm := core.NewPortMap(g)
	net := &Network{
		g:       g,
		pm:      pm,
		cfg:     cfg,
		links:   core.NewLinks(pm),
		nodes:   make([]node, g.N()),
		perNode: make([]int64, g.N()),
		busy:    make([]core.Time, g.N()),
	}
	for i := range net.nodes {
		nd := &net.nodes[i]
		nd.id = core.NodeID(i)
		nd.proto = f(nd.id)
		nd.env = env{net: net, nd: nd}
	}
	if cfg.shards >= 1 {
		net.buildShards()
	} else {
		net.rng, net.faultRng = rand.New(rand.NewSource(cfg.seed)), rand.New(rand.NewSource(cfg.seed^0x10551e5))
	}
	if net.group == nil { // a multi-shard facade schedules nothing itself
		net.sp.initRing(cfg.ringSize())
		net.sp.fixed = cfg.ringWindow > 0
	}
	if cfg.cap.Enabled() {
		net.applyCapacity(cfg.cap)
	}
	for i := range net.nodes {
		nd := &net.nodes[i]
		// Init runs in the node's own dispatch context so Init-time sends
		// draw canonical shard-mode keys from the node's counter.
		owner := nd.env.net
		owner.curOrigin = int32(nd.id)
		nd.proto.Init(&nd.env)
		owner.curOrigin = -1
	}
	return net
}

// PortMap exposes the static port assignment (used by experiment drivers to
// precompute routes; protocols must not use it).
func (net *Network) PortMap() *core.PortMap { return net.pm }

// Graph returns the underlying topology.
func (net *Network) Graph() *graph.Graph { return net.g }

// Now returns the current virtual time.
func (net *Network) Now() core.Time { return net.sp.now }

// Metrics returns the accumulated cost measures (aggregated across shards:
// sums, with max for MaxHeaderHops and FinishTime).
func (net *Network) Metrics() core.Metrics {
	m := net.metrics
	if net.group != nil {
		for _, ch := range net.group.children {
			m.Add(ch.metrics)
		}
	}
	return m
}

// Events returns the number of scheduler events processed so far; wall-clock
// divided by it is the repository benchmark's sim.ns_per_event. Zero-delay
// hardware hops are walked inline and are not events; they are counted in
// SchedStats().FusedHops.
func (net *Network) Events() int64 { return net.schedStats().Events }

// SchedStats returns this network's cumulative scheduler counters
// (aggregated across shards). Reading them also brings the network's share of
// its SchedTotals sink up to date, so a driver that only ever calls RunUntil
// is still counted there.
func (net *Network) SchedStats() SchedStats {
	net.publishStats()
	return net.schedStats()
}

func (net *Network) schedStats() (s SchedStats) {
	for _, c := range net.cores() {
		s.add(c.sp.stats)
	}
	return s
}

// publishStats adds what this network (every shard, on a facade) has counted
// since the last call to the configured totals sink.
func (net *Network) publishStats() {
	for _, c := range net.cores() {
		if net.cfg.totals != nil {
			c.sp.publish(net.cfg.totals)
		}
	}
}

// cores returns the event cores that run this network: its child shards on a
// multi-shard facade, else the network itself.
func (net *Network) cores() []*Network {
	if net.group != nil {
		return net.group.children
	}
	return []*Network{net}
}

// DeliveriesPerNode returns a copy of the per-node delivery counts.
func (net *Network) DeliveriesPerNode() []int64 {
	return append([]int64(nil), net.perNode...)
}

// BusyTimePerNode returns each NCU's accumulated processing time; divided
// by the finish time it is the processor utilization the paper's
// introduction argues about.
func (net *Network) BusyTimePerNode() []core.Time {
	return append([]core.Time(nil), net.busy...)
}

// Protocol returns node u's protocol instance, for post-run inspection.
func (net *Network) Protocol(u core.NodeID) core.Protocol { return net.nodes[u].proto }

// Inject schedules an external packet (e.g. a START message) for node v's
// NCU at time t. It counts as an injection, not a delivery. On a sharded
// network the event goes to v's owning shard, keyed by the shared driver
// ordinal so scripted events keep one global order regardless of shard count.
func (net *Network) Inject(t core.Time, v core.NodeID, payload any) {
	net.checkNode("Inject", v)
	owner := net.ownerOf(v)
	e := owner.sp.schedule(t, owner.nextKey())
	e.set(evInject, v, 0, 0, 0, 0, 0)
	e.payload = payload
}

// checkNode refuses a node outside the graph before the driver call op
// changes anything.
func (net *Network) checkNode(op string, v core.NodeID) {
	if v < 0 || int(v) >= net.g.N() {
		// precondition: a driver names only nodes of its own graph.
		panic(fmt.Sprintf("sim: %s at node %d, outside the graph's %d nodes", op, v, net.g.N()))
	}
}

// SetLink schedules a link state change at time t. The hardware state flips
// at t; both endpoint NCUs receive a LinkEvent activation (the data-link
// notification). On a sharded network a cut edge's flip is delivered to both
// endpoint-owning shards — each flips its own end of the link and notifies
// only the endpoints it owns. Driver ordinals sort before all node-created
// events at the same instant, so the flip is visible to every hop at t on
// every shard.
func (net *Network) SetLink(t core.Time, u, v core.NodeID, up bool) {
	if !net.g.HasEdge(u, v) {
		// precondition: a driver scripts only edges of its own graph.
		panic(fmt.Sprintf("sim: SetLink on non-edge %d-%d", u, v))
	}
	ou, ov := net.ownerOf(u), net.ownerOf(v)
	ou.scheduleFlip(t, u, v, up)
	if ov != ou {
		ov.scheduleFlip(t, u, v, up)
	}
}

func (net *Network) scheduleFlip(t core.Time, u, v core.NodeID, up bool) {
	var flags uint8
	if up {
		flags = flagUp
	}
	net.sp.schedule(t, net.nextKey()).set(evLinkFlip, u, 0, int32(v), 0, 0, flags)
}

// LinkUp reports the current hardware state of edge {u, v}.
func (net *Network) LinkUp(u, v core.NodeID) bool { return net.links.Up(u, v) }

// CrashNode schedules the model's node failure at time t: an inactive node
// is one all of whose links are inactive (§2), so every incident link goes
// down and all neighbors get data-link notifications.
func (net *Network) CrashNode(t core.Time, v core.NodeID) {
	net.checkNode("CrashNode", v)
	for _, nb := range net.g.Neighbors(v) {
		net.SetLink(t, v, nb, false)
	}
}

// RestoreNode schedules the reverse of CrashNode.
func (net *Network) RestoreNode(t core.Time, v core.NodeID) {
	net.checkNode("RestoreNode", v)
	for _, nb := range net.g.Neighbors(v) {
		net.SetLink(t, v, nb, true)
	}
}

// InjectLink flips the hardware state of edge {u, v} at the current virtual
// time. It is the fault-injection surface shared with the goroutine runtime
// (the soak scripts both through one interface); experiment drivers that script changes at explicit
// times keep using SetLink.
func (net *Network) InjectLink(u, v core.NodeID, up bool) {
	net.SetLink(net.sp.now, u, v, up)
}

// SetMsgFaults replaces the lossy-link profile, effective for link
// traversals from the current virtual time on (packets already scheduled
// onto a link keep the roll they got). The fault stream itself is not
// reset, so a driver toggling profiles deterministically keeps the run a
// pure function of the seed.
func (net *Network) SetMsgFaults(f core.MsgFaults) {
	net.cfg.faults = f
	for _, c := range net.cores() {
		c.cfg.faults = f
		c.sp.grow(c.cfg.ringSize())
	}
}

// ringSize is the calendar-ring span a network starts with: a fixed
// ringWindow wins (and freezes it); otherwise the span is sized so the
// one-hop delay envelope — the farthest ahead of now any single schedule can
// land without NCU queueing — fits with 4x headroom, rounded up to a power of
// two within [minRingWindow, maxRingWindow]. The envelope is hardware C plus
// the worst enabled fault surcharge (MsgFaults.DelayBound) plus software P.
// NCU backlogs are not in it: an auto-sized ring doubles when one pushes an
// event just past the span (spine.place). Events two or more spans out still
// run correctly — they overflow to the heap (counted in
// SchedStats.RingOverflows) — so the size is pure mechanism.
func (cf *config) ringSize() int {
	if cf.ringWindow > 0 {
		return roundRingWindow(cf.ringWindow)
	}
	env := cf.hwDelay + cf.faults.DelayBound(cf.hwDelay) + max(1, cf.swDelay)
	return roundRingWindow(int(4 * env))
}

// StallNode opens an NCU-stall window at v (the gray-failure sibling of
// CrashNode): for the next window units of virtual time, every activation at
// v pays extra additional software delay — the node is slow, not dead. The
// surcharge is accounted in Metrics.StallTicks. A second call replaces any
// open window.
func (net *Network) StallNode(v core.NodeID, window, extra core.Time) {
	net.checkNode("StallNode", v)
	if extra <= 0 {
		extra = 1
	}
	nd := &net.nodes[v]
	nd.stallUntil = net.sp.now + window
	nd.stallExtra = extra
}

// Run drains the event queue and returns the finish time (the time of the
// last NCU activation), or the *core.HandlerError of a handler's Env.Fail.
func (net *Network) Run() (core.Time, error) {
	defer net.publishStats()
	return net.runTop(noDeadline)
}

// RunUntil processes events with time <= deadline, leaving later events
// queued. The clock then reads the deadline if events remain queued, else the
// last event's instant, as after Run. A deadline behind the clock (any
// negative one included) is refused with ErrBackward: nothing is dispatched
// and nothing changes.
func (net *Network) RunUntil(deadline core.Time) (core.Time, error) {
	return net.runTop(deadline)
}

// runTop routes a run to the right engine: the synchronous-window
// coordinator for a multi-shard network, the plain event loop otherwise. A
// failed network stays stopped, and a deadline behind the clock is refused,
// before either engine is entered. A shard-mode serial network additionally
// flushes its buffered trace through the canonical merge so its stream is
// byte-identical to a multi-shard run's.
func (net *Network) runTop(deadline core.Time) (core.Time, error) {
	f := net.failed
	if net.group != nil {
		f = net.group.failure()
	}
	if f != nil {
		return net.Metrics().FinishTime, f
	}
	if deadline < net.sp.now {
		return net.Metrics().FinishTime, fmt.Errorf("%w: RunUntil(%d) with the clock at %d", ErrBackward, deadline, net.sp.now)
	}
	if net.group != nil {
		return net.group.run(deadline)
	}
	t, err := net.runCore(deadline)
	if net.userSink != nil {
		flushShardTrace([]*Network{net}, net.userSink)
	}
	return t, err
}

// runCore is the event loop of one core: next, budget, dispatch, done, until
// an Env.Fail. The spine decides what is next (see queue.go for the order
// argument).
func (net *Network) runCore(deadline core.Time) (core.Time, error) {
	defer func() { net.curOrigin = -1 }()
	sp := &net.sp
	for net.failed == nil {
		ev := sp.next(deadline)
		if ev == nil {
			return net.metrics.FinishTime, nil
		}
		if sp.stats.Events > net.cfg.eventBudget {
			// The event that trips the budget is consumed undispatched.
			sp.done()
			return net.metrics.FinishTime, fmt.Errorf("%w (%d events)", ErrEventBudget, sp.stats.Events)
		}
		net.dispatch(ev)
		sp.done()
	}
	return net.metrics.FinishTime, net.failed
}
