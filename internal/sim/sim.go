// Package sim is the deterministic discrete-event runtime for fastnet
// protocols. It realizes the paper's delay model directly: every link
// traversal costs a hardware delay bounded by C, every NCU activation costs
// a software delay bounded by P, and the single processor per node
// serializes activations. With exact delays (the default) a run is a
// worst-case execution, which is what the paper's time-complexity statements
// quantify over; with randomized delays a run samples an asynchronous
// execution.
//
// The event core is allocation-free on the steady-state hot path: events are
// tagged-union records (activation / link event / injection / link flip /
// hop) drawn from a free list and ordered by a typed 4-ary min-heap on
// (time, sequence), so scheduling one of the up-to-50M events of a run costs
// no closure, no interface boxing, and no per-event heap allocation.
//
// Four fast paths apply the paper's own cost measure to the runtime
// itself. Cut-through switching executes contiguous zero-delay hardware
// hops (C = 0, no jitter pending) in one tight loop inside a single event,
// so simulator wall-clock scales with system-call complexity (NCU
// activations) rather than communication complexity (hops) — see
// docs/PERF.md for the design and its equivalence argument. A same-time
// FIFO lane in front of the heap absorbs residual events scheduled for the
// current instant (zero-delay activations, injections at now, clamped
// pushes) without paying a heap sift, and a calendar ring — auto-sized at
// construction from the configured delay envelope (hardware C, software P,
// fault jitter/reorder/slowdown bounds), regrown if SetMsgFaults widens it
// — absorbs near-future events (t - now < ring window), leaving the heap
// only far-future overflow. In the C >= 1 regime, where every hardware hop
// leaves the current instant, ring-bound hop events that traverse the same
// link at the same instant additionally coalesce into one scheduler entry
// carrying a contiguous slab of hop records (the paper's "packets
// pipelined on a link" priced at one scheduler touch). All four preserve
// the scheduler's strict (t, seq) dispatch order; cutthrough_test.go and
// batch_test.go prove the fused/batched and reference executions produce
// identical traces, metrics, and per-node vectors, and golden_test.go pins
// the event stream byte for byte.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync/atomic"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// ErrEventBudget is returned by Run when the event budget is exhausted,
// which almost always means a protocol is looping.
var ErrEventBudget = errors.New("sim: event budget exhausted")

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
	cutThrough  bool
	hopBatch    bool
	ringWindow  int // 0 = auto-size from the delay envelope; > 0 = fixed (power of two, no auto growth)
	shards      int // -1 = unset (use package default); 0 = classic; >= 1 = shard mode
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

// cutThroughOff is the inverted package-wide default for cut-through
// switching (inverted so the zero value means "on"). See
// SetDefaultCutThrough.
var cutThroughOff atomic.Bool

// SetDefaultCutThrough sets the cut-through default applied to every
// subsequently constructed Network (per-network WithCutThrough still wins).
// Cut-through is on by default; differential tests switch whole experiment
// or soak stacks — which construct their networks internally — onto the
// unfused reference path with it. Affects construction only: existing
// networks keep their setting.
func SetDefaultCutThrough(on bool) { cutThroughOff.Store(!on) }

// WithCutThrough enables or disables cut-through switching for this
// network. When on (the default), contiguous zero-delay hardware hops of a
// walk execute inline inside one event; when off, every hop pays the full
// per-event scheduler round-trip. The two modes execute hops in the same
// depth-first same-instant order and draw from the same rng streams at the
// same points, so all observables — traces, metrics, per-node vectors,
// reliable-delivery ledgers — are identical; only Events() (the number of
// scheduler dispatches) differs. cutthrough_test.go enforces this.
func WithCutThrough(on bool) Option {
	return func(cf *config) { cf.cutThrough = on }
}

// hopBatchOff is the inverted package-wide default for (link, instant) hop
// batching (inverted so the zero value means "on"). See SetDefaultHopBatching.
var hopBatchOff atomic.Bool

// SetDefaultHopBatching sets the hop-batching default applied to every
// subsequently constructed Network (per-network WithHopBatching still wins).
// Batching is on by default; differential tests and reference benchmarks
// switch whole experiment or soak stacks — which construct their networks
// internally — onto the one-event-per-hop path with it. Affects construction
// only: existing networks keep their setting.
func SetDefaultHopBatching(on bool) { hopBatchOff.Store(!on) }

// WithHopBatching enables or disables (link, instant) hop batching for this
// network. When on (the default), ring-bound hop events that traverse the
// same link at the same instant coalesce into one scheduler entry carrying a
// contiguous slab of hop records; when off, every hop is its own entry.
// Batching preserves the scheduler's (t, seq) dispatch order exactly (see
// docs/PERF.md for the proof), so all observables — traces, metrics,
// per-node vectors, even Events() — are identical in both modes; only the
// SchedStats push-split differs. batch_test.go enforces this.
func WithHopBatching(on bool) Option {
	return func(cf *config) { cf.hopBatch = on }
}

// defaultRingWin is the package-wide ring-window override applied at
// construction when no per-network WithRingWindow is given; 0 (the initial
// value) means auto-size. See SetDefaultRingWindow.
var defaultRingWin atomic.Int64

// SetDefaultRingWindow sets the calendar-ring window applied to every
// subsequently constructed Network that does not carry an explicit
// WithRingWindow (which still wins). 0 restores auto-sizing. Like
// SetDefaultCutThrough it exists so reference benchmarks can pin whole
// stacks to the historical fixed window from one flag.
func SetDefaultRingWindow(n int) { defaultRingWin.Store(int64(n)) }

// WithRingWindow fixes the calendar-ring span to n instants (rounded up to a
// power of two, minimum minRingWindow), disabling the auto-sizer and the
// SetMsgFaults regrowth. n = 0 restores auto-sizing. The window is pure
// mechanism — any size yields byte-identical observables (events beyond the
// window overflow to the heap, whose (t, seq) order the ring reproduces) —
// so this knob exists for tests that force the overflow and spill paths and
// for reference measurements against the historical 64-slot window.
func WithRingWindow(n int) Option {
	return func(cf *config) { cf.ringWindow = n }
}

// Network is a simulated network: a graph, one protocol instance per node,
// and the event queue.
type Network struct {
	g     *graph.Graph
	pm    *core.PortMap
	cfg   config
	queue eventHeap
	lane  eventLane // same-time FIFO: events scheduled for now bypass the heap
	stage eventLane // shard mode: the current instant's ring slot, promoted in key order

	// Near-time calendar ring: events scheduled within ringSpan instants of
	// now wait in the FIFO slot of their instant (slot t & ringMask) and are
	// promoted wholesale when the clock reaches them — the span is auto-sized
	// from the delay envelope (or fixed by WithRingWindow) so that in steady
	// state almost every event lands here and the heap sees only far-future
	// schedules (timers, long stalls, epoch scripts).
	ring        []eventLane
	ringBits    []uint64  // slot-occupancy bitmap: bit s set iff ring[s] is nonempty
	ringSpan    core.Time // len(ring), a power of two
	ringMask    core.Time // ringSpan - 1
	ringPending int       // total entries across ring slots
	freeBatch   *hopBatch // free list of (link, instant) hop-batch slabs
	free        *rec      // free list of event payload records
	hops        hopArena  // reverse-route buffers of the packets this core launches
	seq         uint64
	now         core.Time
	nodes       []node
	down        map[graph.Edge]bool
	rng         *rand.Rand // network-level source (hardware delays)
	faultRng    *rand.Rand // lossy-link rolls (separate stream: enabling faults must not perturb delay draws)

	metrics    core.Metrics
	perNode    []int64        // deliveries per node
	busy       []core.Time    // accumulated NCU busy time per node
	pendAct    []int32        // per-node pending-activation backlog; nil unless Capacity.NCUQueue > 0
	linkTok    [][]linkBucket // per-node, per-port token buckets; nil unless Capacity.LinkRate > 0
	actSeq     int64
	msgSeq     int64
	eventCount int64
	stats      SchedStats // scheduler observability; Events mirrors eventCount on read
	flushed    SchedStats // portion already added to the global aggregate

	// Shard-mode state (see shard.go and docs/PERF.md). In shard mode event
	// keys, delay draws, fault rolls, and activation/message labels come from
	// per-node streams so that every observable is invariant under the shard
	// count; the classic fields above keep their exact behavior when
	// shardMode is false.
	shardMode bool
	shardID   int32
	assign    []int32      // node -> shard; nil unless a multi-shard child
	outbox    [][]eventRec // per-target-shard boundary packets awaiting the barrier
	scriptCtr *uint64      // shared driver-event ordinal (sorts before all node keys)
	curOrigin int32        // node whose dispatch is executing; -1 in driver context
	group     *shardGroup  // non-nil on the facade of a multi-shard network
	tb        *traceBuf    // this core's private trace buffer (shard mode)
	userSink  trace.Sink   // the caller's sink, fed by the merged flush
}

type node struct {
	id        core.NodeID
	proto     core.Protocol
	rng       *rand.Rand // created on first draw; see node.random
	ports     []core.Port
	busyUntil core.Time
	// NCU-stall window (gray failure): while now < stallUntil every
	// activation's software delay is inflated by stallExtra.
	stallUntil core.Time
	stallExtra core.Time
	env        env

	// Shard-mode per-node streams: hardware-delay draws, fault rolls, and
	// the canonical event-key / activation / message counters all live on
	// the node so a run's draw sequences are a pure function of (seed, node)
	// — independent of how nodes interleave across shards. Touched only by
	// the owning shard.
	hwRng  *rand.Rand
	fltRng *rand.Rand
	keyCtr uint64
	actCtr int64
	msgCtr int64
}

// random returns the node's deterministic source, creating it on first use:
// the seed is a pure function of (network seed, node id), so laziness only
// skips the allocation in runs that never draw (exact delays, rng-free
// protocols) without changing any draw sequence.
func (nd *node) random(net *Network) *rand.Rand {
	if nd.rng == nil {
		nd.rng = rand.New(rand.NewSource(net.cfg.seed + int64(nd.id) + 1))
	}
	return nd.rng
}

type env struct {
	net *Network
	nd  *node
	act int64 // current activation ordinal (0 outside activations)
}

var _ core.Env = (*env)(nil)

// New builds a network over g, instantiating one protocol per node via f and
// calling Init on each.
func New(g *graph.Graph, f core.Factory, opts ...Option) *Network {
	cfg := config{
		hwDelay:     0,
		swDelay:     1,
		seed:        1,
		sink:        trace.Discard{},
		eventBudget: 50_000_000,
		cutThrough:  !cutThroughOff.Load(),
		hopBatch:    !hopBatchOff.Load(),
		ringWindow:  int(defaultRingWin.Load()),
		shards:      -1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards < 0 {
		cfg.shards = int(defaultShardsN.Load())
	}
	pm := core.NewPortMap(g)
	net := &Network{
		g:        g,
		pm:       pm,
		cfg:      cfg,
		down:     make(map[graph.Edge]bool),
		rng:      rand.New(rand.NewSource(cfg.seed)),
		faultRng: rand.New(rand.NewSource(cfg.seed ^ 0x10551e5)),
		nodes:    make([]node, g.N()),
		perNode:  make([]int64, g.N()),
		busy:     make([]core.Time, g.N()),
	}
	net.initRing(cfg.ringSize())
	// One contiguous port arena for all nodes: each node's mutable port
	// slice is a sub-slice (full-slice expression, so no append can bleed
	// into a neighbor's ports), instead of one small allocation per node.
	total := 0
	for u := 0; u < g.N(); u++ {
		total += len(pm.Ports(core.NodeID(u)))
	}
	arena := make([]core.Port, 0, total)
	for i := range net.nodes {
		id := core.NodeID(i)
		start := len(arena)
		arena = append(arena, pm.Ports(id)...)
		nd := &net.nodes[i]
		nd.id = id
		nd.proto = f(id)
		nd.ports = arena[start:len(arena):len(arena)]
		nd.env = env{net: net, nd: nd}
	}
	if cfg.shards >= 1 {
		net.buildShards()
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
func (net *Network) Now() core.Time { return net.now }

// Metrics returns the accumulated cost measures (aggregated across shards:
// sums, with max for MaxHeaderHops and FinishTime).
func (net *Network) Metrics() core.Metrics {
	if net.group != nil {
		return net.group.metrics()
	}
	return net.metrics
}

// Events returns the number of scheduler events processed so far; divided by
// wall-clock it is the event throughput `fastnet bench` reports. Hardware
// hops fused by cut-through are not events (that is the point of the
// optimization); they are counted in SchedStats().FusedHops.
func (net *Network) Events() int64 {
	if net.group != nil {
		return net.group.events()
	}
	return net.eventCount
}

// SchedStats are scheduler observability counters: how much work the event
// core did and how much of it the same-time fast paths absorbed. They are
// measurement only — no simulation result depends on them.
type SchedStats struct {
	Events        int64 // scheduler events dispatched (run-loop pops + unfused walk steps + batched hop records)
	HeapPushes    int64 // events that paid a heap sift
	LanePushes    int64 // events absorbed by the same-time FIFO lane (O(1))
	RingPushes    int64 // events absorbed by the near-time calendar ring (O(1))
	BatchedHops   int64 // hop records appended to an open (link, instant) batch — no scheduler entry at all
	RingOverflows int64 // future events past the ring window that silently fell back to the heap
	FusedHops     int64 // hardware hops executed inline by cut-through, no event at all
	HeapPeak      int   // high-water mark of the heap (pending future events)
	RingPeak      int   // high-water mark of the calendar ring's pending entries
}

// LaneHitRate is the fraction of scheduled events that bypassed the heap
// (same-time lane, near-time ring, or a ride along an open hop batch).
func (s SchedStats) LaneHitRate() float64 {
	if total := s.HeapPushes + s.LanePushes + s.RingPushes + s.BatchedHops; total > 0 {
		return float64(s.LanePushes+s.RingPushes+s.BatchedHops) / float64(total)
	}
	return 0
}

// FusedHopsPerEvent is how many hardware hops rode along per scheduler
// event — the cut-through engine's amortization factor.
func (s SchedStats) FusedHopsPerEvent() float64 {
	if s.Events > 0 {
		return float64(s.FusedHops) / float64(s.Events)
	}
	return 0
}

// String renders the counters in the one-line form the CLI surfaces
// (`fastnet exp -v`, `fastnet soak -v`) print.
func (s SchedStats) String() string {
	return fmt.Sprintf("events=%d fused-hops=%d (%.2f/event) pushes(heap=%d lane=%d ring=%d batched=%d) heap-bypass=%.1f%% ring-overflows=%d peaks(heap=%d ring=%d)",
		s.Events, s.FusedHops, s.FusedHopsPerEvent(),
		s.HeapPushes, s.LanePushes, s.RingPushes, s.BatchedHops,
		100*s.LaneHitRate(), s.RingOverflows, s.HeapPeak, s.RingPeak)
}

// add accumulates o into s (peaks by max).
func (s *SchedStats) add(o SchedStats) {
	s.Events += o.Events
	s.HeapPushes += o.HeapPushes
	s.LanePushes += o.LanePushes
	s.RingPushes += o.RingPushes
	s.BatchedHops += o.BatchedHops
	s.RingOverflows += o.RingOverflows
	s.FusedHops += o.FusedHops
	if o.HeapPeak > s.HeapPeak {
		s.HeapPeak = o.HeapPeak
	}
	if o.RingPeak > s.RingPeak {
		s.RingPeak = o.RingPeak
	}
}

// SchedStats returns this network's cumulative scheduler counters
// (aggregated across shards). Reading them also publishes the network's
// not-yet-flushed share to the process-wide aggregate, so a driver that only
// ever calls RunUntil is still counted by TakeGlobalSchedStats.
func (net *Network) SchedStats() SchedStats {
	net.flushGlobalStats()
	if net.group != nil {
		return net.group.schedStats()
	}
	return net.schedStats()
}

// schedStats is this event core's own counters, without the flush.
func (net *Network) schedStats() SchedStats {
	s := net.stats
	s.Events = net.eventCount
	return s
}

// globalStats aggregates scheduler counters across every Network in the
// process, so stacks that construct networks internally (experiments, soak
// campaigns) can still be observed. A network adds its delta when Run
// returns and when its SchedStats are read — not per RunUntil, which epoch
// and open-loop drivers call once per arrival.
var globalStats struct {
	events, heapPushes, lanePushes, ringPushes, batchedHops, ringOverflows, fusedHops atomic.Int64
	heapPeak, ringPeak                                                                atomic.Int64
}

// TakeGlobalSchedStats returns the process-wide scheduler counters
// accumulated since the last call, and resets them. `fastnet exp -v`
// reports these per invocation.
func TakeGlobalSchedStats() SchedStats {
	return SchedStats{
		Events:        globalStats.events.Swap(0),
		HeapPushes:    globalStats.heapPushes.Swap(0),
		LanePushes:    globalStats.lanePushes.Swap(0),
		RingPushes:    globalStats.ringPushes.Swap(0),
		BatchedHops:   globalStats.batchedHops.Swap(0),
		RingOverflows: globalStats.ringOverflows.Swap(0),
		FusedHops:     globalStats.fusedHops.Swap(0),
		HeapPeak:      int(globalStats.heapPeak.Swap(0)),
		RingPeak:      int(globalStats.ringPeak.Swap(0)),
	}
}

// peakMax raises the atomic high-water mark p to at least v.
func peakMax(p *atomic.Int64, v int64) {
	for {
		old := p.Load()
		if v <= old || p.CompareAndSwap(old, v) {
			return
		}
	}
}

// flushGlobalStats adds this network's (every shard's, on a facade)
// not-yet-flushed counter delta to the process-wide aggregate.
func (net *Network) flushGlobalStats() {
	if net.group != nil {
		for _, ch := range net.group.children {
			ch.flushGlobalStats()
		}
		return
	}
	cur := net.schedStats()
	globalStats.events.Add(cur.Events - net.flushed.Events)
	globalStats.heapPushes.Add(cur.HeapPushes - net.flushed.HeapPushes)
	globalStats.lanePushes.Add(cur.LanePushes - net.flushed.LanePushes)
	globalStats.ringPushes.Add(cur.RingPushes - net.flushed.RingPushes)
	globalStats.batchedHops.Add(cur.BatchedHops - net.flushed.BatchedHops)
	globalStats.ringOverflows.Add(cur.RingOverflows - net.flushed.RingOverflows)
	globalStats.fusedHops.Add(cur.FusedHops - net.flushed.FusedHops)
	peakMax(&globalStats.heapPeak, int64(cur.HeapPeak))
	peakMax(&globalStats.ringPeak, int64(cur.RingPeak))
	net.flushed = cur
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
	owner := net.ownerOf(v)
	r := owner.newRec()
	r.node = v
	r.payload = payload
	owner.push(t, evInject, r)
}

// SetLink schedules a link state change at time t. The hardware state flips
// at t; both endpoint NCUs receive a LinkEvent activation (the data-link
// notification). On a sharded network a cut edge's flip is delivered to both
// endpoint-owning shards — each updates its own link-state map and notifies
// only the endpoints it owns. Driver ordinals sort before all node-created
// events at the same instant, so the flip is visible to every hop at t on
// every shard.
func (net *Network) SetLink(t core.Time, u, v core.NodeID, up bool) {
	if !net.g.HasEdge(u, v) {
		panic(fmt.Sprintf("sim: SetLink on non-edge %d-%d", u, v))
	}
	ou, ov := net.ownerOf(u), net.ownerOf(v)
	r := ou.newRec()
	r.u, r.v, r.up = u, v, up
	ou.push(t, evLinkFlip, r)
	if ov != ou {
		r := ov.newRec()
		r.u, r.v, r.up = u, v, up
		ov.push(t, evLinkFlip, r)
	}
}

// LinkUp reports the current hardware state of edge {u, v}.
func (net *Network) LinkUp(u, v core.NodeID) bool {
	return !net.ownerOf(u).down[graph.Edge{U: u, V: v}.Canon()]
}

// CrashNode schedules the model's node failure at time t: an inactive node
// is one all of whose links are inactive (§2), so every incident link goes
// down and all neighbors get data-link notifications.
func (net *Network) CrashNode(t core.Time, v core.NodeID) {
	for _, nb := range net.g.Neighbors(v) {
		net.SetLink(t, v, nb, false)
	}
}

// RestoreNode schedules the reverse of CrashNode.
func (net *Network) RestoreNode(t core.Time, v core.NodeID) {
	for _, nb := range net.g.Neighbors(v) {
		net.SetLink(t, v, nb, true)
	}
}

// InjectLink flips the hardware state of edge {u, v} at the current virtual
// time. It is the fault-injection surface shared with the goroutine runtime
// (faults.Injector); experiment drivers that script changes at explicit
// times keep using SetLink.
func (net *Network) InjectLink(u, v core.NodeID, up bool) {
	net.SetLink(net.now, u, v, up)
}

// SetMsgFaults replaces the lossy-link profile, effective for link
// traversals from the current virtual time on (packets already scheduled
// onto a link keep the roll they got). The fault stream itself is not
// reset, so a driver toggling profiles deterministically keeps the run a
// pure function of the seed.
func (net *Network) SetMsgFaults(f core.MsgFaults) {
	net.cfg.faults = f
	net.growRing(net.cfg.ringSize())
	if net.group != nil {
		for _, ch := range net.group.children {
			ch.cfg.faults = f
			ch.growRing(ch.cfg.ringSize())
		}
	}
}

// ringSize is the calendar-ring span for this configuration: a fixed
// WithRingWindow wins; otherwise the span is sized so the one-hop delay
// envelope — the farthest ahead of now any single schedule can land without
// NCU queueing — fits with 4x headroom for queueing tails, rounded up to a
// power of two within [minRingWindow, maxRingWindow]. The envelope is
// hardware C plus the worst enabled fault surcharge (jitter, reorder hold,
// or gray-link slowdown; duplicates always pay a jitter draw) plus software
// P. Events beyond the span still run correctly — they overflow to the heap
// (counted in SchedStats.RingOverflows) — so the size is pure mechanism.
func (cf *config) ringSize() int {
	if cf.ringWindow > 0 {
		return roundRingWindow(cf.ringWindow)
	}
	env := cf.hwDelay
	var extra core.Time
	f := cf.faults
	if f.Jitter > 0 || f.Dup > 0 {
		extra = max(extra, max(1, f.JitterMax))
	}
	if f.Reorder > 0 {
		extra = max(extra, max(1, f.ReorderWindow))
	}
	if f.Slowdown > 0 {
		s := core.Time(1)
		if f.SlowFactor > 1 {
			s += core.Time(float64(cf.hwDelay) * (f.SlowFactor - 1))
		}
		if f.SlowMax > 1 {
			s += f.SlowMax - 1
		}
		extra = max(extra, s)
	}
	env += extra + max(1, cf.swDelay)
	return roundRingWindow(int(4 * env))
}

// roundRingWindow rounds n up to a power of two in [minRingWindow,
// maxRingWindow]; powers of two make the slot index a mask.
func roundRingWindow(n int) int {
	w := minRingWindow
	for w < n && w < maxRingWindow {
		w <<= 1
	}
	return w
}

// initRing allocates the calendar ring at span w (a power of two >= 64, so
// the occupancy bitmap is a whole number of words).
func (net *Network) initRing(w int) {
	net.ring = make([]eventLane, w)
	net.ringBits = make([]uint64, w/64)
	net.ringSpan = core.Time(w)
	net.ringMask = core.Time(w - 1)
}

// ringSet marks slot idx occupied in the bitmap. Setting is idempotent, so
// every ring push marks unconditionally; bits clear only when a slot drains
// wholesale (promote, flushLanes, growRing's re-bucket).
func (net *Network) ringSet(idx core.Time) { net.ringBits[idx>>6] |= 1 << (idx & 63) }

// nextRingInstant returns the earliest pending calendar-ring instant, or -1
// with nothing pending. Every pending instant lies in (now, now+span), and
// slot order starting after now's slot — wrapping once — is instant order, so
// a word-at-a-time scan of the occupancy bitmap finds the nearest set bit in
// O(span/64) words instead of O(span) slot probes; on the sparse rings the
// auto-sizer produces (large span, few distinct pending instants) the probe
// loop is what used to dominate the clock advance.
func (net *Network) nextRingInstant() core.Time {
	if net.ringPending == 0 {
		return -1
	}
	for dt := core.Time(1); dt <= net.ringSpan; {
		idx := (net.now + dt) & net.ringMask
		if w := net.ringBits[idx>>6] >> (idx & 63); w != 0 {
			return net.now + dt + core.Time(bits.TrailingZeros64(w))
		}
		dt += 64 - (idx & 63)
	}
	return -1
}

// growRing widens the ring to span w, re-bucketing pending entries by their
// stored time. Growth preserves dispatch order: every pending instant owns
// exactly one old slot, distinct instants stay distinct modulo any larger
// power of two, and each slot is drained FIFO — so per-instant entry order
// (and any open batch's slot-tail position) carries over verbatim. The ring
// never shrinks mid-run: an entry in a slot it could no longer reach from a
// heap push would break the heap-before-ring sequence argument.
func (net *Network) growRing(w int) {
	if net.cfg.ringWindow > 0 || w <= len(net.ring) {
		return
	}
	old := net.ring
	net.initRing(w)
	for s := range old {
		for old[s].len() > 0 {
			e := old[s].popFront()
			net.ring[e.t&net.ringMask].pushBack(e)
			net.ringSet(e.t & net.ringMask)
		}
	}
}

// RingWindow returns the current calendar-ring span in instants.
func (net *Network) RingWindow() int {
	if net.group != nil {
		return len(net.group.children[0].ring)
	}
	return len(net.ring)
}

// MsgFaults returns the active lossy-link profile.
func (net *Network) MsgFaults() core.MsgFaults { return net.cfg.faults }

// StallNode opens an NCU-stall window at v (the gray-failure sibling of
// CrashNode): for the next window units of virtual time, every activation at
// v pays extra additional software delay — the node is slow, not dead. The
// surcharge is accounted in Metrics.StallTicks. A second call replaces any
// open window.
func (net *Network) StallNode(v core.NodeID, window, extra core.Time) {
	if extra <= 0 {
		extra = 1
	}
	nd := &net.nodes[v]
	nd.stallUntil = net.now + window
	nd.stallExtra = extra
}

// Run drains the event queue and returns the finish time (the time of the
// last NCU activation).
func (net *Network) Run() (core.Time, error) {
	defer net.flushGlobalStats()
	return net.runTop(-1)
}

// RunUntil processes events with time <= deadline, leaving later events
// queued, and advances the clock to the deadline.
func (net *Network) RunUntil(deadline core.Time) (core.Time, error) {
	return net.runTop(deadline)
}

// runTop routes a run to the right engine: the synchronous-window
// coordinator for a multi-shard network, the plain event loop otherwise. A
// shard-mode serial network additionally flushes its buffered trace through
// the canonical merge so its stream is byte-identical to a multi-shard run's.
func (net *Network) runTop(deadline core.Time) (core.Time, error) {
	if net.group != nil {
		return net.group.run(deadline)
	}
	t, err := net.runCore(deadline)
	if net.userSink != nil {
		flushShardTrace([]*Network{net}, net.userSink)
	}
	return t, err
}

// runCore drains events in strict (t, seq) order from three tiers: the heap's
// residue at the current instant (scheduled before the clock reached it, so
// — in classic mode — with the smallest sequence numbers), then the
// same-time FIFO lane (pushes that arrived while now == t, in push — i.e.
// sequence — order), and only then a clock advance to the earliest instant
// pending in the near-time calendar ring or the heap. Pushes for the current
// instant always land in the lane, so the heap never gains a t == now entry
// while the lane drains; pushes within the ring window of now land in the
// ring, so every heap entry for an instant t predates — and therefore
// outranks by sequence — every ring entry for t. In shard mode, where
// same-instant dispatch follows canonical keys rather than push order, the
// promoted slot is sorted by key (the stage) and merged with the heap's
// residue at t key by key — reproducing exactly the order a single heap
// would pop. The dispatch order is total and identical to a single (t, seq)
// priority queue's.
func (net *Network) runCore(deadline core.Time) (core.Time, error) {
	defer func() { net.curOrigin = -1 }()
	if deadline >= 0 && deadline < net.now {
		// Backward RunUntil: spill the lane, stage, and ring into the heap —
		// whose (t, seq) order keeps the entries correct for whenever the
		// clock catches up — before the clock moves back. The spill is what
		// keeps the ring's one-instant-per-slot invariant: entries retained
		// across a backward move could collide with later pushes whose
		// instants alias the same slot.
		net.flushLanes()
		net.now = deadline
		return net.metrics.FinishTime, nil
	}
	for {
		var ev eventRec
		switch {
		case net.queue.len() > 0 && net.queue.evs[0].t == net.now &&
			(net.stage.len() == 0 || net.queue.evs[0].seq < net.stage.front().seq):
			ev = net.queue.pop()
		case net.stage.len() > 0:
			ev = net.stage.popFront()
		case net.lane.len() > 0:
			ev = net.lane.popFront()
		case net.ringPending > 0 || net.queue.len() > 0:
			// Advance the clock to the earliest pending instant across the
			// calendar ring and the heap, then loop again: the tier cases
			// above drain that instant in (t, seq) order — heap residue
			// first in classic mode (pushed while now <= t-window, so with
			// strictly smaller sequence numbers than any ring entry for t),
			// key-merged with the sorted stage in shard mode.
			tNext := net.nextRingInstant()
			if net.queue.len() > 0 && (tNext < 0 || net.queue.evs[0].t < tNext) {
				tNext = net.queue.evs[0].t
			}
			if deadline >= 0 && tNext > deadline {
				// Forward cut: stop the clock at the deadline. Pending ring
				// entries stay put — their instants only get closer, so the
				// slot invariant holds — and the next run picks them up.
				net.now = deadline
				return net.metrics.FinishTime, nil
			}
			net.now = tNext
			if net.ringPending > 0 && net.ring[tNext&net.ringMask].len() > 0 {
				net.promote(tNext)
			}
			continue
		default:
			return net.metrics.FinishTime, nil
		}
		net.eventCount++
		if net.eventCount > net.cfg.eventBudget {
			return net.metrics.FinishTime, fmt.Errorf("%w (%d events)", ErrEventBudget, net.eventCount)
		}
		net.dispatch(ev)
	}
}

// promote moves the ring slot of instant t in front of the heap. Classic
// mode swaps it into the same-time lane wholesale (slot FIFO order is push —
// i.e. sequence — order, and the empty lane's backing array is reused as the
// slot's next generation). Shard mode sorts the slot by canonical key into
// the stage, which runCore merges with the heap's residue at t key by key;
// same-instant creations during t still go to the lane, which drains only
// after stage and heap — the canonical "pre-created in key order, then
// creations in creation order" stream of the pre-ring shard scheduler.
func (net *Network) promote(t core.Time) {
	slot := &net.ring[t&net.ringMask]
	net.ringBits[(t&net.ringMask)>>6] &^= 1 << (t & net.ringMask & 63)
	if net.shardMode {
		net.stage, *slot = *slot, net.stage
		net.ringPending -= net.stage.len()
		net.stage.sortBySeq()
		return
	}
	net.lane, *slot = *slot, net.lane
	net.ringPending -= net.lane.len()
}

// flushLanes spills pending lane, stage, and calendar-ring entries into the
// heap. Only the backward-deadline return path needs it: everywhere else
// the lanes drain before the clock moves past them. Entries keep their
// stored (t, seq), so heap ordering stays correct for whenever the clock
// catches up.
func (net *Network) flushLanes() {
	for net.lane.len() > 0 {
		net.queue.push(net.lane.popFront())
	}
	for net.stage.len() > 0 {
		net.queue.push(net.stage.popFront())
	}
	for s := range net.ring {
		for net.ring[s].len() > 0 {
			net.queue.push(net.ring[s].popFront())
			net.ringPending--
		}
	}
	clear(net.ringBits)
}

// localRev is the Reverse of every injected activation: the one-hop "deliver
// to my own NCU" route, shared and never written (cap == len, so an append
// copies it like any other Reverse).
var localRev = anr.Local()

// dispatch consumes one popped event. Union fields are copied out and the
// record returned to the free list before any protocol code runs, so the
// callback's own scheduling reuses it immediately.
func (net *Network) dispatch(ev eventRec) {
	r := ev.rec
	switch ev.kind {
	case evHop:
		nodeID, h, i, revBuf := r.node, r.h, int(r.hopIdx), r.rev
		arrivedOn, payload, msg := r.arrivedOn, r.payload, r.msg
		net.freeRec(r)
		net.curOrigin = int32(nodeID)
		net.stepHop(nodeID, h, i, revBuf, arrivedOn, payload, msg)
	case evHopBatch:
		// One scheduler entry, a run of hop records over one (link, instant):
		// step them in append order — their (t, seq) dispatch order — while
		// streaming the store's contiguous slab. Each record counts as an
		// event (the loop's pop counted the first), so Events() is identical
		// to the unbatched scheduler's.
		b := r.batch
		net.freeRec(r)
		net.curOrigin = int32(b.node)
		node, arrivedOn := b.node, b.arrivedOn
		net.eventCount += int64(len(b.recs)) - 1
		for j := range b.recs {
			hr := &b.recs[j]
			net.stepHop(node, hr.h, int(hr.hopIdx), hr.rev, arrivedOn, hr.payload, hr.msg)
		}
		net.freeBatchSlab(b)
	case evActivation:
		nodeID, pkt, msg, isCopy := r.node, r.pkt, r.msg, r.isCopy
		net.freeRec(r)
		net.curOrigin = int32(nodeID)
		if net.pendAct != nil && net.pendAct[nodeID] > 0 {
			net.pendAct[nodeID]--
		}
		nd := &net.nodes[nodeID]
		act := net.nextAct(nd)
		nd.env.act = act
		if pkt.Injected {
			net.metrics.Injections++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindInject, Time: int64(net.now), Node: nodeID, Act: act, Msg: msg})
		} else {
			net.metrics.Deliveries++
			net.perNode[nodeID]++
			if isCopy {
				net.metrics.CopyDeliveries++
			}
			net.cfg.sink.Record(trace.Event{Kind: trace.KindDeliver, Time: int64(net.now), Node: nodeID, Act: act, Msg: msg})
		}
		if net.now > net.metrics.FinishTime {
			net.metrics.FinishTime = net.now
		}
		nd.proto.Deliver(&nd.env, pkt)
		nd.env.act = 0
	case evLinkEvent:
		nodeID, port := r.node, r.port
		net.freeRec(r)
		net.curOrigin = int32(nodeID)
		nd := &net.nodes[nodeID]
		act := net.nextAct(nd)
		nd.env.act = act
		net.metrics.LinkEvents++
		if net.now > net.metrics.FinishTime {
			net.metrics.FinishTime = net.now
		}
		net.cfg.sink.Record(trace.Event{Kind: trace.KindLinkEvent, Time: int64(net.now), Node: nodeID, Act: act})
		nd.proto.LinkEvent(&nd.env, port)
		nd.env.act = 0
	case evInject:
		nodeID, payload := r.node, r.payload
		net.freeRec(r)
		net.curOrigin = int32(nodeID)
		net.enqueueActivation(nodeID, core.Packet{
			Payload:   payload,
			Reverse:   localRev,
			ArrivedOn: anr.NCU,
			Injected:  true,
		}, 0, false)
	case evLinkFlip:
		u, v, up := r.u, r.v, r.up
		net.freeRec(r)
		e := graph.Edge{U: u, V: v}.Canon()
		net.down[e] = !up
		for _, end := range [2]core.NodeID{u, v} {
			// On a sharded network a cut edge's flip record reaches both
			// shards; each notifies only the endpoint it owns.
			if !net.ownsNode(end) {
				continue
			}
			other := v
			if end == v {
				other = u
			}
			net.curOrigin = int32(end)
			nd := &net.nodes[end]
			lid, _ := net.pm.Toward(end, other)
			port := &nd.ports[int(lid)-1]
			port.Up = up
			net.enqueueLinkEvent(end, *port)
		}
	}
}

// push schedules an event record at time t (clamped to now), assigning the
// next sequence number. (t, seq) is the scheduler's total order. Events for
// the current instant skip the heap entirely: they go to the same-time FIFO
// lane, which run drains in push order — exactly their (t, seq) order,
// since every heap entry at t == now predates every lane entry (the heap
// can only have gained it while now < t). Events within the ring window of
// now — nearly every schedule, since the window is sized from the delay
// envelope — likewise skip the heap via the near-time calendar ring's
// per-instant FIFO slots, which run promotes when the clock reaches them; a
// heap entry for the same instant was pushed while now <= t-window and so
// carries a strictly smaller sequence number, which the promotion honors by
// letting the heap drain that instant first. In shard mode the slot is
// sorted by canonical key at promotion (see promote), so the per-instant
// FIFO's push order never shows and per-shard rings stay exact.
func (net *Network) push(t core.Time, kind uint8, r *rec) {
	if t < net.now {
		t = net.now
	}
	e := eventRec{t: t, seq: net.nextKey(), kind: kind, rec: r}
	if t == net.now {
		net.stats.LanePushes++
		net.lane.pushBack(e)
		return
	}
	if t-net.now < net.ringSpan {
		net.stats.RingPushes++
		net.ring[t&net.ringMask].pushBack(e)
		net.ringSet(t & net.ringMask)
		net.ringPending++
		if net.ringPending > net.stats.RingPeak {
			net.stats.RingPeak = net.ringPending
		}
		return
	}
	net.stats.RingOverflows++
	net.stats.HeapPushes++
	net.queue.push(e)
	if n := net.queue.len(); n > net.stats.HeapPeak {
		net.stats.HeapPeak = n
	}
}

// nextKey assigns the scheduler key of a new event. Classic mode: the global
// push sequence. Shard mode: a canonical key — driver-scripted events take a
// shared ordinal (< 2^40, sorting before every node key at the same instant);
// node-created events take ((node+1) << 40) | perNodeCounter, a pure function
// of the creating node's dispatch history. Two shard-mode runs of the same
// scenario assign identical keys to identical events regardless of the shard
// count, which is what makes (t, key) dispatch order — and with it every
// observable — shard-count-invariant.
func (net *Network) nextKey() uint64 {
	if !net.shardMode {
		net.seq++
		return net.seq
	}
	if net.curOrigin < 0 {
		*net.scriptCtr = *net.scriptCtr + 1
		return *net.scriptCtr
	}
	nd := &net.nodes[net.curOrigin]
	nd.keyCtr++
	return (uint64(net.curOrigin)+1)<<40 | nd.keyCtr
}

// nextAct assigns an activation label. Classic mode: the global activation
// sequence. Shard mode: ((node+1) << 36) | perNodeCounter, so labels are
// shard-count-invariant (trace projections compare them).
func (net *Network) nextAct(nd *node) int64 {
	if net.shardMode {
		nd.actCtr++
		return (int64(nd.id)+1)<<36 | nd.actCtr
	}
	net.actSeq++
	return net.actSeq
}

// nextMsg assigns a message label for a packet sent by src; same scheme as
// nextAct.
func (net *Network) nextMsg(src core.NodeID) int64 {
	if net.shardMode {
		nd := &net.nodes[src]
		nd.msgCtr++
		return (int64(src)+1)<<36 | nd.msgCtr
	}
	net.msgSeq++
	return net.msgSeq
}

// hwSrc is the hardware-delay stream for hops leaving node v: per-node in
// shard mode, the network-global source otherwise.
func (net *Network) hwSrc(v core.NodeID) *rand.Rand {
	if !net.shardMode {
		return net.rng
	}
	nd := &net.nodes[v]
	if nd.hwRng == nil {
		nd.hwRng = rand.New(rand.NewSource(net.cfg.seed ^ (-0x61C8864680B583EB * (int64(v) + 1))))
	}
	return nd.hwRng
}

// faultSrc is the lossy-link roll stream for traversals leaving node v;
// per-node in shard mode so fault draws stay on the owning shard.
func (net *Network) faultSrc(v core.NodeID) *rand.Rand {
	if !net.shardMode {
		return net.faultRng
	}
	nd := &net.nodes[v]
	if nd.fltRng == nil {
		nd.fltRng = rand.New(rand.NewSource((net.cfg.seed ^ 0x10551e5) + -0x61C8864680B583EB*(int64(v)+1)))
	}
	return nd.fltRng
}

// dupRev returns the reverse-path buffer a fault-injected duplicate should
// carry. Classic mode shares the original (idempotent rewrites); shard mode
// clones it — the duplicate and the original may cross shard boundaries at
// different times, and sharing would make one shard re-write positions
// another is reading.
func (net *Network) dupRev(rev anr.Header) anr.Header {
	if !net.shardMode {
		return rev
	}
	return append(anr.Header(nil), rev...)
}

// enqueueActivation reserves the node's NCU for one software delay starting
// no earlier than now and schedules the Deliver callback at completion time.
// With a finite NCU service queue configured (Capacity.NCUQueue) an arrival
// that finds the backlog at the cap is dropped at the NCU boundary instead;
// link events stay uncapped — they are the hardware's control-plane
// notifications, not queued user work.
func (net *Network) enqueueActivation(v core.NodeID, pkt core.Packet, msg int64, isCopy bool) {
	nd := &net.nodes[v]
	start := net.now
	if nd.busyUntil > start {
		start = nd.busyUntil
	}
	if net.pendAct != nil {
		if int(net.pendAct[v]) >= net.cfg.cap.NCUQueue {
			net.metrics.CapQueueDrops++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindCapQueueDrop, Time: int64(net.now), Node: v, Msg: msg})
			return
		}
		net.pendAct[v]++
	}
	if net.cfg.cap.Enabled() {
		// Queueing delay: how long this activation waits behind the node's
		// backlog before its own software delay starts. Accounted only under
		// a capacity model so capacity-free metrics strings are unchanged.
		net.metrics.QueueTicks += int64(start - net.now)
	}
	dur := net.swDelayFor(nd)
	done := start + dur
	nd.busyUntil = done
	net.busy[v] += dur
	r := net.newRec()
	r.node = v
	r.pkt = pkt
	r.msg = msg
	r.isCopy = isCopy
	net.push(done, evActivation, r)
}

func (net *Network) enqueueLinkEvent(v core.NodeID, port core.Port) {
	nd := &net.nodes[v]
	start := net.now
	if nd.busyUntil > start {
		start = nd.busyUntil
	}
	dur := net.swDelayFor(nd)
	done := start + dur
	nd.busyUntil = done
	net.busy[v] += dur
	r := net.newRec()
	r.node = v
	r.port = port
	net.push(done, evLinkEvent, r)
}

func (net *Network) swDelayFor(nd *node) core.Time {
	p := net.cfg.swDelay
	if net.cfg.randomize && p > 1 {
		p = 1 + core.Time(nd.random(net).Int63n(int64(p)))
	}
	// A stalled NCU (GC-pause-style gray failure) pays extra software delay
	// for every activation inside the window; the surcharge is accounted so
	// soaks can report how much slowness was injected.
	if net.now < nd.stallUntil && nd.stallExtra > 0 {
		p += nd.stallExtra
		net.metrics.StallTicks += int64(nd.stallExtra)
	}
	return p
}

// hwDelayOnce draws one hardware delay for a hop leaving node from.
func (net *Network) hwDelayOnce(from core.NodeID) core.Time {
	c := net.cfg.hwDelay
	if !net.cfg.randomize || c <= 1 {
		return c
	}
	return 1 + core.Time(net.hwSrc(from).Int63n(int64(c)))
}

// route launches packet routing from node src at the current time. Hops are
// stepped as individual events so that link failures affect packets in
// flight. Semantics match core.WalkRoute.
func (net *Network) route(src core.NodeID, h anr.Header, payload any, act int64) error {
	if err := h.Validate(); err != nil {
		return err
	}
	if err := h.CheckDmax(net.cfg.dmax); err != nil {
		net.metrics.DmaxViolations++
		return err
	}
	// Static pre-validation: every named link must exist in the topology.
	cur := src
	for _, hop := range h {
		if hop.Link == anr.NCU {
			break
		}
		port, err := net.pm.Resolve(cur, hop.Link)
		if err != nil {
			return err
		}
		cur = port.Remote
	}
	msg := net.nextMsg(src)
	net.metrics.Packets++
	hops := int64(h.HopCount())
	net.metrics.HeaderBits += (hops + 1) * int64(net.pm.IDWidth()+1)
	if hops > net.metrics.MaxHeaderHops {
		net.metrics.MaxHeaderHops = hops
	}
	net.cfg.sink.Record(trace.Event{Kind: trace.KindSend, Time: int64(net.now), Node: src, Act: act, Msg: msg})
	// One reverse-path buffer per packet, carved from this event core's hop
	// arena and filled back to front as the header is consumed: the reverse
	// route after hop i is revBuf[hops-1-i:], so every delivery's Reverse is
	// an independent tail of the same buffer and no per-hop allocation is
	// needed. The buffer — and so every tail — has cap == len, so a protocol
	// appending to a captured Reverse reallocates instead of stomping the
	// next packet's buffer; duplicate packets re-write the same positions
	// with the same route-determined values, which is idempotent.
	revBuf := net.hops.carve(h.HopCount() + 1)
	revBuf[len(revBuf)-1] = anr.Hop{Link: anr.NCU}
	net.stepHop(src, h, 0, revBuf, anr.NCU, payload, msg)
	return nil
}

// hopArena hands out reverse-route buffers from pointer-free chunks, so a
// packet launch allocates once per hopChunk hops instead of once per packet.
// Buffers are never recycled: a chunk is garbage once every buffer carved
// from it is, so a protocol retaining one Reverse pins at most hopChunk hops.
// Routes longer than hopChunk/8 get an allocation of their own, which bounds
// both that retention and the unused tail a chunk is abandoned with.
type hopArena struct{ free []anr.Hop }

const hopChunk = 512

func (a *hopArena) carve(n int) anr.Header {
	if n > hopChunk/8 {
		return make(anr.Header, n)
	}
	if len(a.free) < n {
		a.free = make([]anr.Hop, hopChunk)
	}
	buf := a.free[:n:n]
	a.free = a.free[n:]
	return buf
}

// stepHop consumes the header from position i at node cur, at the current
// time. The reverse route accumulated so far is revBuf[len(revBuf)-1-i:].
//
// The loop is the cut-through engine: as long as the next hop departs at
// the same timestamp — C = 0 and no jitter pending, the paper's "hardware
// hops cost almost nothing" regime — the walk continues inline, depth-first,
// inside this one call. Per-link fault rolls, hop metrics, and traces are
// produced in traversal order exactly as if each hop were its own event;
// the scheduler is re-entered only at a time advance (C > 0 or jitter), a
// selective-copy or terminal NCU delivery, a fault or filter breaking the
// walk, or route end. With cut-through disabled the same loop pays the full
// event round-trip per hop (record, sequence number, lane push/pop) but
// keeps the identical depth-first order, making the two modes differential-
// testable against each other.
func (net *Network) stepHop(cur core.NodeID, h anr.Header, i int, revBuf anr.Header, arrivedOn anr.ID, payload any, msg int64) {
	for {
		rev := revBuf[len(revBuf)-1-i:]
		hop := h[i]
		if hop.Link == anr.NCU {
			net.enqueueActivation(cur, core.Packet{
				Payload:   payload,
				Reverse:   rev,
				ArrivedOn: arrivedOn,
			}, msg, false)
			return
		}
		port, err := net.pm.Resolve(cur, hop.Link)
		if err != nil {
			// Pre-validated at send; unreachable unless topology changed shape.
			net.metrics.Drops++
			return
		}
		if i > 0 && net.cfg.filter != nil && !net.cfg.filter(cur, payload) {
			net.metrics.Filtered++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindDrop, Time: int64(net.now), Node: cur, Msg: msg})
			return
		}
		if hop.Copy {
			net.enqueueActivation(cur, core.Packet{
				Payload:     payload,
				Remaining:   h[i+1:].Clone(),
				Reverse:     rev,
				ArrivedOn:   arrivedOn,
				ForwardedOn: hop.Link,
			}, msg, true)
		}
		if net.down[graph.Edge{U: cur, V: port.Remote}.Canon()] {
			net.metrics.Drops++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindDrop, Time: int64(net.now), Node: cur, Msg: msg})
			return
		}
		if net.linkTok != nil {
			// Per-link bandwidth: one token per traversal from the tail node's
			// bucket for this directed link, refilled lazily since its last
			// touch — O(1) admission, no refill events, and no rng draw (so
			// enabling capacity never perturbs the fault or delay streams).
			b := &net.linkTok[cur][int(hop.Link)-1]
			if dt := net.now - b.last; dt > 0 {
				b.tok += net.cfg.cap.LinkRate * float64(dt)
				if burst := net.cfg.cap.Burst(); b.tok > burst {
					b.tok = burst
				}
				b.last = net.now
			}
			if b.tok < 1 {
				net.metrics.CapLinkDrops++
				net.cfg.sink.Record(trace.Event{Kind: trace.KindCapLinkDrop, Time: int64(net.now), Node: cur, Msg: msg})
				return
			}
			b.tok--
		}
		// Lossy-link model: one roll per live-link traversal. A duplicate
		// crosses the link a second time (an extra hardware hop) after a jitter
		// delay; a corruption damages the payload seen by everything downstream.
		var extraDelay core.Time
		duplicate := false
		if net.cfg.faults.Enabled() {
			switch net.cfg.faults.Roll(net.faultSrc(cur)) {
			case core.FaultDrop:
				net.metrics.FaultDrops++
				net.cfg.sink.Record(trace.Event{Kind: trace.KindFaultDrop, Time: int64(net.now), Node: cur, Msg: msg, Cause: core.FaultDrop.String()})
				return
			case core.FaultDup:
				net.metrics.FaultDups++
				duplicate = true
				net.cfg.sink.Record(trace.Event{Kind: trace.KindFaultDup, Time: int64(net.now), Node: cur, Msg: msg, Cause: core.FaultDup.String()})
			case core.FaultCorrupt:
				net.metrics.FaultCorrupts++
				payload = core.CorruptPayload(payload, net.faultSrc(cur))
				net.cfg.sink.Record(trace.Event{Kind: trace.KindFaultCorrupt, Time: int64(net.now), Node: cur, Msg: msg, Cause: core.FaultCorrupt.String()})
			case core.FaultJitter:
				net.metrics.FaultJitters++
				extraDelay = net.cfg.faults.JitterDelay(net.faultSrc(cur))
				net.cfg.sink.Record(trace.Event{Kind: trace.KindFaultJitter, Time: int64(net.now), Node: cur, Msg: msg, Cause: core.FaultJitter.String()})
			case core.FaultReorder:
				// A reorder fault holds the packet back on the wire: the
				// extra delay lets traffic sent later on the same link
				// overtake it, which is what breaks the FIFO discipline.
				net.metrics.FaultReorders++
				extraDelay = net.cfg.faults.ReorderDelay(net.faultSrc(cur))
				net.cfg.sink.Record(trace.Event{Kind: trace.KindFaultReorder, Time: int64(net.now), Node: cur, Msg: msg, Cause: core.FaultReorder.String()})
			case core.FaultSlowdown:
				// A gray link: the packet is delivered intact, just late —
				// the extra delay is >= 1, so a slowed hop always leaves the
				// instant and never fuses into a zero-delay chain.
				net.metrics.FaultSlowdowns++
				extraDelay = net.cfg.faults.SlowdownDelay(net.faultSrc(cur), net.cfg.hwDelay)
				net.cfg.sink.Record(trace.Event{Kind: trace.KindFaultSlow, Time: int64(net.now), Node: cur, Msg: msg, Cause: core.FaultSlowdown.String()})
			}
		}
		net.metrics.Hops++
		revBuf[len(revBuf)-2-i] = anr.Hop{Link: port.RemoteID}
		at := net.now + net.hwDelayOnce(cur) + extraDelay
		if at == net.now {
			// Zero-delay hop: the packet is at the next subsystem already
			// (at == now implies hwDelayOnce drew nothing: C <= 1 never
			// draws, and C >= 1 or jitter would have advanced at). A
			// fault-injected duplicate always re-crosses after a jitter
			// delay >= 1, so it alone leaves the instant and goes through
			// the scheduler; its bookkeeping runs before the walk continues
			// so both modes draw jitter at the same stream position.
			if duplicate {
				net.metrics.Hops++
				dupAt := net.now + net.hwDelayOnce(cur) + net.cfg.faults.JitterDelay(net.faultSrc(cur))
				net.pushHop(dupAt, port.Remote, h, i+1, net.dupRev(revBuf), port.RemoteID, payload, msg)
			}
			if net.cfg.cutThrough {
				net.stats.FusedHops++
				cur, i, arrivedOn = port.Remote, i+1, port.RemoteID
				continue
			}
			// Unfused reference path: the continuation becomes a real event
			// — record from the pool, sequence number, same-time lane —
			// popped back immediately so the walk stays depth-first like
			// the fused path. Earlier lane entries keep their place; they
			// were scheduled before this hop and run after the walk, in
			// both modes.
			net.pushHop(net.now, port.Remote, h, i+1, revBuf, port.RemoteID, payload, msg)
			ev := net.lane.popBack()
			net.eventCount++
			r := ev.rec
			cur, i, arrivedOn, payload = r.node, int(r.hopIdx), r.arrivedOn, r.payload
			net.freeRec(r)
			continue
		}
		net.pushHop(at, port.Remote, h, i+1, revBuf, port.RemoteID, payload, msg)
		if duplicate {
			net.metrics.Hops++
			dupAt := net.now + net.hwDelayOnce(cur) + net.cfg.faults.JitterDelay(net.faultSrc(cur))
			net.pushHop(dupAt, port.Remote, h, i+1, net.dupRev(revBuf), port.RemoteID, payload, msg)
		}
		return
	}
}

func (net *Network) pushHop(at core.Time, node core.NodeID, h anr.Header, i int, revBuf anr.Header, arrivedOn anr.ID, payload any, msg int64) {
	if net.assign != nil && net.assign[node] != net.shardID {
		// Boundary hop: the key is drawn here, at creation, from the origin
		// node's canonical counter — the same position in the counter stream
		// a single-shard run would draw it — and the record waits in the
		// outbox until the window barrier hands it to the owning shard. Its
		// arrival time is at least now + lookahead, so it lands strictly
		// after the current window.
		r := net.newRec()
		r.node = node
		r.h = h
		r.hopIdx = int32(i)
		r.rev = revBuf
		r.arrivedOn = arrivedOn
		r.payload = payload
		r.msg = msg
		e := eventRec{t: at, seq: net.nextKey(), kind: evHop, rec: r}
		net.outbox[net.assign[node]] = append(net.outbox[net.assign[node]], e)
		return
	}
	if net.cfg.hopBatch && at > net.now && at-net.now < net.ringSpan {
		// Ring-bound hop: coalesce per (link, instant). The key is drawn
		// unconditionally — batching must not perturb the shard-mode key
		// streams — and the record may ride along an open batch at the tail
		// of its slot instead of becoming a scheduler entry of its own.
		// Appending is sound only at the slot tail: the batch dispatches at
		// its first record's (t, seq) position, and a tail run is exactly
		// the run of entries the unbatched scheduler would pop there (any
		// event sequenced between two members lives at another instant). In
		// shard mode the slot is re-sorted by key at promotion, so members
		// must additionally be key-contiguous — a contiguous key range no
		// other event's key can sort into, which only consecutive draws of
		// one origin node produce.
		seq := net.nextKey()
		slot := &net.ring[at&net.ringMask]
		if n := len(slot.evs); n > slot.head {
			last := &slot.evs[n-1]
			if last.t == at {
				switch last.kind {
				case evHopBatch:
					if b := last.rec.batch; b.node == node && b.arrivedOn == arrivedOn &&
						(!net.shardMode || seq == b.lastSeq+1) {
						b.append(h, int32(i), revBuf, payload, msg)
						b.lastSeq = seq
						net.stats.BatchedHops++
						return
					}
				case evHop:
					if r := last.rec; r.node == node && r.arrivedOn == arrivedOn &&
						(!net.shardMode || seq == last.seq+1) {
						b := net.newBatch(node, arrivedOn)
						b.append(r.h, r.hopIdx, r.rev, r.payload, r.msg)
						b.append(h, int32(i), revBuf, payload, msg)
						b.lastSeq = seq
						*r = rec{next: r.next, batch: b}
						last.kind = evHopBatch
						net.stats.BatchedHops++
						return
					}
				}
			}
		}
		r := net.newRec()
		r.node = node
		r.h = h
		r.hopIdx = int32(i)
		r.rev = revBuf
		r.arrivedOn = arrivedOn
		r.payload = payload
		r.msg = msg
		net.stats.RingPushes++
		slot.pushBack(eventRec{t: at, seq: seq, kind: evHop, rec: r})
		net.ringSet(at & net.ringMask)
		net.ringPending++
		if net.ringPending > net.stats.RingPeak {
			net.stats.RingPeak = net.ringPending
		}
		return
	}
	r := net.newRec()
	r.node = node
	r.h = h
	r.hopIdx = int32(i)
	r.rev = revBuf
	r.arrivedOn = arrivedOn
	r.payload = payload
	r.msg = msg
	net.push(at, evHop, r)
}

// --- env: the core.Env implementation handed to protocols ---

func (e *env) ID() core.NodeID { return e.nd.id }

func (e *env) Ports() []core.Port { return e.nd.ports }

func (e *env) PortToward(nb core.NodeID) (core.Port, bool) {
	lid, ok := e.net.pm.Toward(e.nd.id, nb)
	if !ok {
		return core.Port{}, false
	}
	return e.nd.ports[int(lid)-1], true
}

func (e *env) Send(h anr.Header, payload any) error {
	e.net.metrics.Sends++
	return e.net.route(e.nd.id, h, payload, e.act)
}

func (e *env) Multicast(hs []anr.Header, payload any) error {
	if err := core.ValidateMulticast(hs); err != nil {
		return err
	}
	e.net.metrics.Sends++
	for _, h := range hs {
		if err := e.net.route(e.nd.id, h, payload, e.act); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) Now() core.Time { return e.net.now }

func (e *env) Rand() *rand.Rand { return e.nd.random(e.net) }

// --- event core: tagged-union records + typed 4-ary min-heap ---

// Event kinds of the scheduler's tagged union.
const (
	evActivation uint8 = iota // deliver one packet to an NCU (one system call)
	evLinkEvent               // data-link notification activation
	evInject                  // external injection arrives at a node
	evLinkFlip                // scripted hardware link state change
	evHop                     // packet arrives at a switching subsystem mid-route
	evHopBatch                // a run of hops traversing one link at one instant
)

// hopBatch is the slab store behind one evHopBatch entry: the per-record
// fields of a run of hops that traverse the same link at the same instant,
// held in one contiguous array so dispatch streams through sequential
// header/port/msg memory instead of pop-and-free cycling one pooled record
// and one scheduler entry per hop. The shared coordinates (destination node,
// arrival port, instant) are factored out; lastSeq is the key of the newest
// member, which shard mode uses to enforce key-contiguity. Slabs are pooled
// on the owning network and their capacity survives recycling.
type hopRec struct {
	h       anr.Header
	rev     anr.Header
	payload any
	msg     int64
	hopIdx  int32
}

type hopBatch struct {
	node      core.NodeID
	arrivedOn anr.ID
	lastSeq   uint64

	recs []hopRec

	next *hopBatch // free-list link
}

func (b *hopBatch) append(h anr.Header, hopIdx int32, rev anr.Header, payload any, msg int64) {
	b.recs = append(b.recs, hopRec{h: h, hopIdx: hopIdx, rev: rev, payload: payload, msg: msg})
}

func (net *Network) newBatch(node core.NodeID, arrivedOn anr.ID) *hopBatch {
	b := net.freeBatch
	if b != nil {
		net.freeBatch = b.next
		b.next = nil
	} else {
		b = &hopBatch{recs: make([]hopRec, 0, 8)}
	}
	b.node, b.arrivedOn = node, arrivedOn
	return b
}

// freeBatchSlab drops the references a dispatched batch pinned and returns
// the slab — truncated, capacity kept — to the free list.
func (net *Network) freeBatchSlab(b *hopBatch) {
	clear(b.recs)
	b.recs = b.recs[:0]
	b.lastSeq = 0
	b.next = net.freeBatch
	net.freeBatch = b
}

// rec carries the payload of one scheduled event. Records are pooled on a
// free list: dispatch copies the fields out and recycles the record before
// running any protocol code, so steady-state scheduling performs no heap
// allocation. Only the fields of the active kind are meaningful.
type rec struct {
	node core.NodeID

	// evActivation
	pkt    core.Packet
	msg    int64 // also evHop
	isCopy bool

	// evLinkEvent
	port core.Port

	// evInject (payload also used by evHop)
	payload any

	// evLinkFlip
	u, v core.NodeID
	up   bool

	// evHop
	h         anr.Header
	hopIdx    int32
	rev       anr.Header
	arrivedOn anr.ID

	// evHopBatch
	batch *hopBatch

	next *rec // free-list link
}

// recChunk is the free list's refill quantum. Records are carved from
// contiguous chunks rather than allocated one by one: a heavy-jitter C >= 1
// run keeps hundreds of thousands of records in flight, and carving them
// individually made the allocator and the garbage collector's per-object
// bookkeeping a measurable slice of the event loop. Chunks are never
// returned — the free list reaches its high-water mark once and recycles
// from then on, same as before, just in 256-record strides.
const recChunk = 256

func (net *Network) newRec() *rec {
	if net.free == nil {
		chunk := make([]rec, recChunk)
		for i := range chunk[:recChunk-1] {
			chunk[i].next = &chunk[i+1]
		}
		net.free = &chunk[0]
	}
	r := net.free
	net.free = r.next
	r.next = nil
	return r
}

// freeRec zeroes the record (dropping any references it pinned) and returns
// it to the free list.
func (net *Network) freeRec(r *rec) {
	*r = rec{next: net.free}
	net.free = r
}

// eventRec is one heap element: the scheduling key (t, seq) — a strict total
// order, since seq is unique — plus the tagged payload.
type eventRec struct {
	t    core.Time
	seq  uint64
	kind uint8
	rec  *rec
}

func (a eventRec) before(b eventRec) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventLane is the same-time FIFO in front of the heap: events scheduled
// for the current instant are appended here in sequence order and popped
// from the front, an O(1) path that skips the heap sift entirely. The
// unfused reference walk additionally pops its own just-pushed continuation
// from the back (a one-element excursion that cannot touch earlier
// entries). The head index avoids shifting; the backing array is recycled
// whenever the lane empties.
type eventLane struct {
	evs  []eventRec
	head int
}

// Bounds of the near-time calendar ring's span: events scheduled for t with
// t - now < span wait in the FIFO slot t & (span-1) instead of the heap.
// The span is auto-sized from the configured delay envelope (see
// config.ringSize) so that C >= 1 and heavy-jitter runs keep the same ~100%
// heap-bypass rate the unit-delay defaults get from the 64-slot minimum —
// which alone covers NCU backlogs two orders of magnitude beyond those
// defaults. The cap bounds both memory (a few hundred KB of lane headers)
// and the clock-advance scan, which walks at most span slots; envelopes
// beyond it overflow to the heap and are counted in SchedStats.RingOverflows.
const (
	minRingWindow = 64
	maxRingWindow = 8192
)

func (l *eventLane) len() int { return len(l.evs) - l.head }

// front returns the next entry without popping it.
func (l *eventLane) front() eventRec { return l.evs[l.head] }

// sortBySeq orders the pending entries by sequence key — used by shard-mode
// slot promotion, where canonical keys, not push order, decide dispatch.
func (l *eventLane) sortBySeq() {
	slices.SortFunc(l.evs[l.head:], func(a, b eventRec) int { return cmp.Compare(a.seq, b.seq) })
}

func (l *eventLane) pushBack(e eventRec) { l.evs = append(l.evs, e) }

func (l *eventLane) popFront() eventRec {
	e := l.evs[l.head]
	l.evs[l.head].rec = nil // drop the pool reference
	l.head++
	if l.head == len(l.evs) {
		l.evs = l.evs[:0]
		l.head = 0
	}
	return e
}

func (l *eventLane) popBack() eventRec {
	e := l.evs[len(l.evs)-1]
	l.evs[len(l.evs)-1].rec = nil
	l.evs = l.evs[:len(l.evs)-1]
	if l.head == len(l.evs) {
		l.evs = l.evs[:0]
		l.head = 0
	}
	return e
}

// eventHeap is a 4-ary min-heap ordered by (t, seq). Compared with the
// binary container/heap it halves the sift-down depth and keeps children in
// one cache line, and its typed push/pop avoid the interface boxing that
// made every schedule/dispatch allocate. Any min-heap pops the same strict
// (t, seq) order, so the arity is invisible to simulation results.
type eventHeap struct {
	evs []eventRec
}

func (q *eventHeap) len() int { return len(q.evs) }

func (q *eventHeap) push(e eventRec) {
	q.evs = append(q.evs, e)
	i := len(q.evs) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.before(q.evs[parent]) {
			break
		}
		q.evs[i] = q.evs[parent]
		i = parent
	}
	q.evs[i] = e
}

func (q *eventHeap) pop() eventRec {
	evs := q.evs
	min := evs[0]
	last := evs[len(evs)-1]
	evs = evs[:len(evs)-1]
	q.evs = evs
	if len(evs) > 0 {
		// Sift the former last element down from the root.
		i := 0
		for {
			first := i<<2 + 1
			if first >= len(evs) {
				break
			}
			best := first
			end := first + 4
			if end > len(evs) {
				end = len(evs)
			}
			for c := first + 1; c < end; c++ {
				if evs[c].before(evs[best]) {
					best = c
				}
			}
			if !evs[best].before(last) {
				break
			}
			evs[i] = evs[best]
			i = best
		}
		evs[i] = last
	}
	return min
}
