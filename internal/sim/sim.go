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
// Three fast paths apply the paper's own cost measure to the runtime
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
// only far-future overflow. All three preserve the scheduler's strict
// (t, seq) dispatch order; cutthrough_test.go and batch_test.go prove the
// fused and reference executions, and every ring geometry, produce identical
// traces, metrics, and per-node vectors, and golden_test.go pins the event
// stream byte for byte.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
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
// walk execute inline inside one event; when off, every hop is accounted as
// a scheduler event of its own. The two modes execute hops in the same
// depth-first same-instant order and draw from the same rng streams at the
// same points, so all observables — traces, metrics, per-node vectors,
// reliable-delivery ledgers — are identical; only Events() (the number of
// scheduler dispatches) differs. cutthrough_test.go enforces this.
func WithCutThrough(on bool) Option {
	return func(cf *config) { cf.cutThrough = on }
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
	lane  eventLane  // same-time FIFO: events scheduled for now bypass the heap
	stage eventStage // shard mode: the current instant's ring slot, promoted in key order
	pool  chunkPool  // the chunks behind lane, stage and every ring slot

	popped eventRec // the heap's minimum while it dispatches (runCore is entered once per open-loop arrival: no per-call scratch)

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
	Events        int64 // scheduler events dispatched (run-loop pops + unfused walk steps)
	HeapPushes    int64 // events that paid a heap sift
	LanePushes    int64 // events absorbed by the same-time FIFO lane (O(1))
	RingPushes    int64 // events absorbed by the near-time calendar ring (O(1))
	RingOverflows int64 // future events past the ring window that silently fell back to the heap
	FusedHops     int64 // hardware hops executed inline by cut-through, no event at all
	HeapPeak      int   // high-water mark of the heap (pending future events)
	RingPeak      int   // high-water mark of the calendar ring's pending entries
}

// LaneHitRate is the fraction of scheduled events that bypassed the heap
// (same-time lane or near-time ring).
func (s SchedStats) LaneHitRate() float64 {
	if total := s.HeapPushes + s.LanePushes + s.RingPushes; total > 0 {
		return float64(s.LanePushes+s.RingPushes) / float64(total)
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
	return fmt.Sprintf("events=%d fused-hops=%d (%.2f/event) pushes(heap=%d lane=%d ring=%d) heap-bypass=%.1f%% ring-overflows=%d peaks(heap=%d ring=%d)",
		s.Events, s.FusedHops, s.FusedHopsPerEvent(),
		s.HeapPushes, s.LanePushes, s.RingPushes,
		100*s.LaneHitRate(), s.RingOverflows, s.HeapPeak, s.RingPeak)
}

// add accumulates o into s (peaks by max).
func (s *SchedStats) add(o SchedStats) {
	s.Events += o.Events
	s.HeapPushes += o.HeapPushes
	s.LanePushes += o.LanePushes
	s.RingPushes += o.RingPushes
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
	events, heapPushes, lanePushes, ringPushes, ringOverflows, fusedHops atomic.Int64
	heapPeak, ringPeak                                                   atomic.Int64
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
	e := net.ownerOf(v).schedule(t)
	e.set(evInject, v, 0, 0, 0, 0, 0)
	e.payload = payload
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
	net.schedule(t).set(evLinkFlip, u, 0, int32(v), 0, 0, flags)
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

// growRing widens the ring to span w, re-bucketing the pending slots. Every
// pending instant owns exactly one old slot and distinct instants stay
// distinct modulo any larger power of two, so a slot moves whole — its chunks
// stay where they are — to the new slot of its instant, and per-instant entry
// order carries over verbatim. The ring never shrinks mid-run: an entry in a
// slot it could no longer reach from a heap push would break the
// heap-before-ring sequence argument.
func (net *Network) growRing(w int) {
	if net.cfg.ringWindow > 0 || w <= len(net.ring) {
		return
	}
	old := net.ring
	net.initRing(w)
	for s := range old {
		if old[s].n > 0 {
			idx := old[s].front().t & net.ringMask
			net.ring[idx] = old[s]
			net.ringSet(idx)
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
		// The event dispatches where it waits: in place at the front of the
		// stage or lane — entries never move, and whatever the handlers
		// schedule lands behind it — or from the copy a heap pop made.
		var ev *eventRec
		var from eventTier
		switch {
		case net.queue.len() > 0 && net.queue.evs[0].t == net.now &&
			(net.stage.len() == 0 || net.queue.evs[0].seq < net.stage.front().seq):
			net.queue.pop(&net.popped)
			ev, from = &net.popped, tierHeap
		case net.stage.len() > 0:
			ev, from = net.stage.front(), tierStage
		case net.lane.n > 0:
			ev, from = net.lane.front(), tierLane
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
			if net.ringPending > 0 && net.ring[tNext&net.ringMask].n > 0 {
				net.promote(tNext)
			}
			continue
		default:
			return net.metrics.FinishTime, nil
		}
		// One dispatch site for all three tiers: the C = 0 rows, at ~100 ns
		// an event, read 1% slower with one per tier.
		net.eventCount++
		spent := net.eventCount > net.cfg.eventBudget
		if !spent {
			net.dispatch(ev)
		}
		switch from {
		case tierHeap:
			net.popped.release()
		case tierStage:
			net.stage.drop(&net.pool)
		case tierLane:
			net.lane.drop(&net.pool)
		}
		if spent {
			// The event that trips the budget is consumed undispatched.
			return net.metrics.FinishTime, fmt.Errorf("%w (%d events)", ErrEventBudget, net.eventCount)
		}
	}
}

// eventTier names where runCore found the event it is dispatching.
type eventTier uint8

const (
	tierHeap eventTier = iota
	tierStage
	tierLane
)

// promote moves the ring slot of instant t in front of the heap; the clock
// has just reached t, so lane and stage are empty. Classic mode makes the
// slot the same-time lane wholesale (slot FIFO order is push — i.e. sequence
// — order). Shard mode hands it to the stage, which indexes its entries by
// canonical key for runCore to merge with the heap's residue at t key by key;
// same-instant creations during t still go to the lane, which drains only
// after stage and heap — the canonical "pre-created in key order, then
// creations in creation order" stream of the pre-ring shard scheduler.
func (net *Network) promote(t core.Time) {
	slot := &net.ring[t&net.ringMask]
	net.ringBits[(t&net.ringMask)>>6] &^= 1 << (t & net.ringMask & 63)
	net.ringPending -= slot.n
	if net.shardMode {
		net.stage.load(slot)
		return
	}
	net.lane, *slot = *slot, eventLane{}
}

// flushLanes spills pending lane, stage, and calendar-ring entries into the
// heap. Only the backward-deadline return path needs it: everywhere else
// the lanes drain before the clock moves past them. Entries keep their
// stored (t, seq), so heap ordering stays correct for whenever the clock
// catches up.
func (net *Network) flushLanes() {
	for net.stage.len() > 0 {
		net.queue.push(net.stage.front())
		net.stage.drop(&net.pool)
	}
	spill := func(l *eventLane) {
		for l.n > 0 {
			net.queue.push(l.front())
			l.drop(&net.pool)
		}
	}
	spill(&net.lane)
	for s := range net.ring {
		spill(&net.ring[s])
	}
	net.ringPending = 0
	clear(net.ringBits)
}

// localRev is the Reverse of every injected activation: the one-hop "deliver
// to my own NCU" route, shared and never written (cap == len, so an append
// copies it like any other Reverse).
var localRev = anr.Local()

// dispatch runs one event. ev is read in place and stays valid throughout:
// the run loop drops it only after dispatch returns.
func (net *Network) dispatch(ev *eventRec) {
	switch ev.kind {
	case evHop:
		net.curOrigin = int32(ev.node)
		net.stepHop(ev.node, ev.h, int(ev.hopIdx), ev.rev, ev.arrivedOn, ev.payload, ev.msg)
	case evActivation:
		nodeID, msg := ev.node, ev.msg
		net.curOrigin = int32(nodeID)
		if net.pendAct != nil && net.pendAct[nodeID] > 0 {
			net.pendAct[nodeID]--
		}
		nd := &net.nodes[nodeID]
		act := net.nextAct(nd)
		nd.env.act = act
		injected := ev.flags&flagInjected != 0
		if injected {
			net.metrics.Injections++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindInject, Time: int64(net.now), Node: nodeID, Act: act, Msg: msg})
		} else {
			net.metrics.Deliveries++
			net.perNode[nodeID]++
			if ev.flags&flagCopy != 0 {
				net.metrics.CopyDeliveries++
			}
			net.cfg.sink.Record(trace.Event{Kind: trace.KindDeliver, Time: int64(net.now), Node: nodeID, Act: act, Msg: msg})
		}
		if net.now > net.metrics.FinishTime {
			net.metrics.FinishTime = net.now
		}
		nd.proto.Deliver(&nd.env, core.Packet{
			Payload:     ev.payload,
			Remaining:   ev.h,
			Reverse:     ev.rev,
			ArrivedOn:   ev.arrivedOn,
			ForwardedOn: ev.forwardedOn,
			Injected:    injected,
		})
		nd.env.act = 0
	case evLinkEvent:
		nodeID := ev.node
		net.curOrigin = int32(nodeID)
		nd := &net.nodes[nodeID]
		act := net.nextAct(nd)
		nd.env.act = act
		net.metrics.LinkEvents++
		if net.now > net.metrics.FinishTime {
			net.metrics.FinishTime = net.now
		}
		net.cfg.sink.Record(trace.Event{Kind: trace.KindLinkEvent, Time: int64(net.now), Node: nodeID, Act: act})
		nd.proto.LinkEvent(&nd.env, ev.port())
		nd.env.act = 0
	case evInject:
		net.curOrigin = int32(ev.node)
		if e := net.enqueueActivation(ev.node, 0, anr.NCU, anr.NCU, flagInjected); e != nil {
			e.payload, e.rev = ev.payload, localRev
		}
	case evLinkFlip:
		u, v, up := ev.node, core.NodeID(ev.hopIdx), ev.flags&flagUp != 0
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

// schedule reserves the entry of a new event at time t (clamped to now),
// assigning the next sequence number, and returns it, keyed, for the caller
// to fill in (see eventRec) before anything else is scheduled. (t, seq) is
// the scheduler's total order. Events for the current instant skip the heap
// entirely: they go to the same-time FIFO lane, which run drains in push
// order — exactly their (t, seq) order, since every heap entry at t == now
// predates every lane entry (the heap can only have gained it while now < t).
func (net *Network) schedule(t core.Time) *eventRec {
	if t < net.now {
		t = net.now
	}
	seq := net.nextKey()
	var e *eventRec
	if t == net.now {
		net.stats.LanePushes++
		e = net.lane.alloc(&net.pool)
	} else {
		e = net.place(t, seq)
	}
	e.t, e.seq = t, seq
	return e
}

// place reserves the entry of a future event keyed (t, seq), created
// here or received from another shard at a window barrier. Events within the
// ring window of now — nearly every schedule, since the window is sized from
// the delay envelope — skip the heap via the near-time calendar ring's
// per-instant FIFO slots, which run promotes when the clock reaches them; a
// heap entry for the same instant was pushed while now <= t-window and so
// carries a strictly smaller sequence number, which the promotion honors by
// letting the heap drain that instant first. In shard mode the slot is
// dispatched in canonical key order (see promote), so neither the
// per-instant FIFO's push order nor a boundary event's tier and barrier
// arrival order ever shows, and per-shard rings stay exact.
func (net *Network) place(t core.Time, seq uint64) *eventRec {
	if t > net.now && t-net.now < net.ringSpan {
		net.stats.RingPushes++
		idx := t & net.ringMask
		net.ringSet(idx)
		net.ringPending++
		if net.ringPending > net.stats.RingPeak {
			net.stats.RingPeak = net.ringPending
		}
		return net.ring[idx].alloc(&net.pool)
	}
	net.stats.RingOverflows++
	net.stats.HeapPushes++
	e := net.queue.alloc(t, seq)
	if n := net.queue.len(); n > net.stats.HeapPeak {
		net.stats.HeapPeak = n
	}
	return e
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
//
// It returns the activation's event for the caller to attach the packet's
// references to (payload, h as Remaining, rev as Reverse), or nil when the
// packet was dropped.
func (net *Network) enqueueActivation(v core.NodeID, msg int64, arrivedOn, forwardedOn anr.ID, flags uint8) *eventRec {
	nd := &net.nodes[v]
	start := net.now
	if nd.busyUntil > start {
		start = nd.busyUntil
	}
	if net.pendAct != nil {
		if int(net.pendAct[v]) >= net.cfg.cap.NCUQueue {
			net.metrics.CapQueueDrops++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindCapQueueDrop, Time: int64(net.now), Node: v, Msg: msg})
			return nil
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
	e := net.schedule(done)
	e.set(evActivation, v, msg, 0, arrivedOn, forwardedOn, flags)
	return e
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
	var flags uint8
	if port.Up {
		flags = flagUp
	}
	net.schedule(done).set(evLinkEvent, v, 0, int32(port.Remote), port.Local, port.RemoteID, flags)
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
// walk, or route end. With cut-through disabled the same loop accounts each
// hop as the event it would be (sequence number, lane push, dispatch) but
// keeps the identical depth-first order, making the two modes differential-
// testable against each other.
func (net *Network) stepHop(cur core.NodeID, h anr.Header, i int, revBuf anr.Header, arrivedOn anr.ID, payload any, msg int64) {
	for {
		rev := revBuf[len(revBuf)-1-i:]
		hop := h[i]
		if hop.Link == anr.NCU {
			if e := net.enqueueActivation(cur, msg, arrivedOn, anr.NCU, 0); e != nil {
				e.payload, e.rev = payload, rev
			}
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
			if e := net.enqueueActivation(cur, msg, arrivedOn, hop.Link, flagCopy); e != nil {
				e.payload, e.h, e.rev = payload, h[i+1:].Clone(), rev
			}
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
			// Unfused reference path: the continuation is accounted as a
			// real event — sequence number, same-time lane push, dispatch —
			// but would be popped straight back off the lane's tail so the
			// walk stays depth-first like the fused path, so it never
			// touches the lane. Earlier lane entries keep their place; they
			// were scheduled before this hop and run after the walk, in
			// both modes.
			net.nextKey()
			net.stats.LanePushes++
			net.eventCount++
			cur, i, arrivedOn = port.Remote, i+1, port.RemoteID
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
	var e *eventRec
	if net.assign != nil && net.assign[node] != net.shardID {
		// Boundary hop: the key is drawn here, at creation, from the origin
		// node's canonical counter — the same position in the counter stream
		// a single-shard run would draw it — and the event waits in the
		// outbox until the window barrier hands it to the owning shard. Its
		// arrival time is at least now + lookahead, so it lands strictly
		// after the current window.
		box := &net.outbox[net.assign[node]]
		*box = append(*box, eventRec{t: at, seq: net.nextKey()})
		e = &(*box)[len(*box)-1]
	} else {
		e = net.schedule(at)
	}
	e.set(evHop, node, msg, int32(i), arrivedOn, 0, 0)
	e.payload, e.h, e.rev = payload, h, revBuf
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
