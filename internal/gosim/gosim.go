// Package gosim is the goroutine-based runtime for fastnet protocols. Every
// NCU is a goroutine draining an unbounded FIFO inbox; the switching
// hardware is instantaneous (core.WalkRoute); scheduling nondeterminism
// comes from the Go scheduler. It implements the same core.Env contract as
// the discrete-event runtime, so protocol code runs unchanged.
//
// gosim measures hop and system-call complexity and checks protocol
// correctness under true asynchrony; it does not model C/P time (Now returns
// a causally monotone activation ordinal).
package gosim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// ErrTimeout is returned by AwaitQuiescence when the network is still active
// at the deadline.
var ErrTimeout = errors.New("gosim: quiescence timeout")

type config struct {
	seed   int64
	dmax   int
	sink   trace.Sink
	filter core.HopFilter
	faults core.MsgFaults
}

// Option configures a Network.
type Option func(*config)

// WithSeed seeds the per-node random sources.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithDmax sets the maximal ANR path length; 0 disables the check.
func WithDmax(d int) Option { return func(c *config) { c.dmax = d } }

// WithTrace attaches a trace sink (must be concurrency-safe).
func WithTrace(s trace.Sink) Option { return func(c *config) { c.sink = s } }

// WithMsgFaults enables the lossy-link model: each live-link traversal may
// drop, duplicate, corrupt, reorder, or slow the packet per the profile. Rolls are
// serialized over one seeded source; under the Go scheduler's inherent
// nondeterminism this runtime samples fault placements rather than
// replaying them.
func WithMsgFaults(f core.MsgFaults) Option { return func(c *config) { c.faults = f } }

// Network is a running goroutine network.
type Network struct {
	g   *graph.Graph
	pm  *core.PortMap
	cfg config

	mu   sync.RWMutex // guards down
	down map[graph.Edge]bool

	faultMu  sync.Mutex // guards faults + faultRng
	faults   core.MsgFaults
	faultRng *rand.Rand

	nodes []*gnode
	wg    sync.WaitGroup

	inflight  int64 // pending deliveries; quiescent when 0
	quiesceMu sync.Mutex
	quiesceC  *sync.Cond

	hops         atomic.Int64
	deliveries   atomic.Int64
	copies       atomic.Int64
	injections   atomic.Int64
	linkEvents   atomic.Int64
	sends        atomic.Int64
	packets      atomic.Int64
	drops        atomic.Int64
	dmaxViol     atomic.Int64
	headerBits   atomic.Int64
	maxHdrHops   atomic.Int64
	filtered     atomic.Int64
	faultDrops   atomic.Int64
	faultDups    atomic.Int64
	faultCorr    atomic.Int64
	faultJitter  atomic.Int64
	faultReorder atomic.Int64
	faultSlow    atomic.Int64
	stallTicks   atomic.Int64
	perNode      []atomic.Int64
	actSeq       atomic.Int64
	msgSeq       atomic.Int64
	stopped      atomic.Bool
}

type item struct {
	pkt       core.Packet
	linkEvent bool
	port      core.Port
	msg       int64
	isCopy    bool
	// reorder marks deliveries behind a jitter or reorder fault: they are
	// enqueued at a random inbox position instead of the tail (bounded
	// reordering).
	reorder bool
}

type gnode struct {
	id    core.NodeID
	proto core.Protocol
	rng   *rand.Rand
	ports []core.Port

	mu    sync.Mutex
	cond  *sync.Cond
	queue []item
	stop  bool
	// NCU-stall window (gray failure): the next stallLeft activations each
	// yield the scheduler stallYield times before running.
	stallLeft  int64
	stallYield int
	env        genv
}

type genv struct {
	net *Network
	nd  *gnode
	act int64
}

var _ core.Env = (*genv)(nil)

// New builds and starts the network: one goroutine per node. Callers must
// eventually call Shutdown.
func New(g *graph.Graph, f core.Factory, opts ...Option) *Network {
	cfg := config{seed: 1, sink: trace.Discard{}}
	for _, o := range opts {
		o(&cfg)
	}
	pm := core.NewPortMap(g)
	net := &Network{
		g:        g,
		pm:       pm,
		cfg:      cfg,
		down:     make(map[graph.Edge]bool),
		faults:   cfg.faults,
		faultRng: rand.New(rand.NewSource(cfg.seed ^ 0x10551e5)),
		nodes:    make([]*gnode, g.N()),
		perNode:  make([]atomic.Int64, g.N()),
	}
	net.quiesceC = sync.NewCond(&net.quiesceMu)
	// One contiguous arena holds every node's mutable port state; each node
	// gets a capacity-clamped sub-slice (its own mutex guards the writes),
	// instead of one copy allocation per node.
	total := 0
	for u := 0; u < g.N(); u++ {
		total += len(pm.Ports(core.NodeID(u)))
	}
	arena := make([]core.Port, 0, total)
	for i := range net.nodes {
		id := core.NodeID(i)
		start := len(arena)
		arena = append(arena, pm.Ports(id)...)
		nd := &gnode{
			id:    id,
			proto: f(id),
			rng:   rand.New(rand.NewSource(cfg.seed + int64(i) + 1)),
			ports: arena[start:len(arena):len(arena)],
		}
		nd.cond = sync.NewCond(&nd.mu)
		nd.env = genv{net: net, nd: nd}
		net.nodes[i] = nd
	}
	for _, nd := range net.nodes {
		nd.proto.Init(&nd.env)
	}
	for _, nd := range net.nodes {
		net.wg.Add(1)
		go net.loop(nd)
	}
	return net
}

// PortMap exposes the static port assignment for experiment drivers.
func (net *Network) PortMap() *core.PortMap { return net.pm }

// Graph returns the underlying topology.
func (net *Network) Graph() *graph.Graph { return net.g }

// Protocol returns node u's protocol instance for post-run inspection. Only
// safe to call while the network is quiescent or after Shutdown.
func (net *Network) Protocol(u core.NodeID) core.Protocol { return net.nodes[u].proto }

// Inject delivers an external packet to node v (counts as an injection).
func (net *Network) Inject(v core.NodeID, payload any) {
	net.addInflight(1)
	net.nodes[v].enqueue(item{pkt: core.Packet{
		Payload:   payload,
		Reverse:   anr.Local(),
		ArrivedOn: anr.NCU,
		Injected:  true,
	}})
}

// InjectLink flips the hardware state of edge {u, v} and notifies both NCUs,
// under the name it has on the discrete-event runtime (the soak scripts both
// through one interface).
func (net *Network) InjectLink(u, v core.NodeID, up bool) {
	if !net.g.HasEdge(u, v) {
		panic(fmt.Sprintf("gosim: InjectLink on non-edge %d-%d", u, v))
	}
	net.mu.Lock()
	net.down[graph.Edge{U: u, V: v}.Canon()] = !up
	net.mu.Unlock()
	for _, end := range [2]core.NodeID{u, v} {
		other := v
		if end == v {
			other = u
		}
		nd := net.nodes[end]
		lid, _ := net.pm.Toward(end, other)
		nd.mu.Lock()
		nd.ports[int(lid)-1].Up = up
		port := nd.ports[int(lid)-1]
		nd.mu.Unlock()
		net.addInflight(1)
		nd.enqueue(item{linkEvent: true, port: port})
	}
}

// LinkUp reports the current hardware state of edge {u, v}.
func (net *Network) LinkUp(u, v core.NodeID) bool {
	net.mu.RLock()
	defer net.mu.RUnlock()
	return !net.down[graph.Edge{U: u, V: v}.Canon()]
}

// SetMsgFaults replaces the lossy-link profile, effective for subsequent
// sends. Safe for concurrent use.
func (net *Network) SetMsgFaults(f core.MsgFaults) {
	net.faultMu.Lock()
	net.faults = f
	net.faultMu.Unlock()
}

// StallNode opens an NCU-stall window at v (the gray-failure sibling of
// CrashNode): with no delay model, a stall here means the next window
// activations at v each yield the Go scheduler extra times before running —
// the node is slow relative to its peers, not dead. Yields are accounted in
// Metrics.StallTicks.
func (net *Network) StallNode(v core.NodeID, window, extra core.Time) {
	if extra <= 0 {
		extra = 1
	}
	nd := net.nodes[v]
	nd.mu.Lock()
	nd.stallLeft = int64(window)
	nd.stallYield = int(extra)
	nd.mu.Unlock()
}

// CrashNode fails every link incident to v (the model's node failure: an
// inactive node is one all of whose links are inactive).
func (net *Network) CrashNode(v core.NodeID) {
	for _, nb := range net.g.Neighbors(v) {
		net.InjectLink(v, nb, false)
	}
}

// RestoreNode schedules the reverse of CrashNode: every incident link comes
// back up and both endpoints are notified.
func (net *Network) RestoreNode(v core.NodeID) {
	for _, nb := range net.g.Neighbors(v) {
		net.InjectLink(v, nb, true)
	}
}

// AwaitQuiescence blocks until no deliveries are pending or the timeout
// elapses.
func (net *Network) AwaitQuiescence(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	net.quiesceMu.Lock()
	defer net.quiesceMu.Unlock()
	for atomic.LoadInt64(&net.inflight) != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w (%d in flight)", ErrTimeout, atomic.LoadInt64(&net.inflight))
		}
		// Wake periodically so the deadline is honored even without
		// counter transitions.
		waker := time.AfterFunc(time.Millisecond, net.quiesceC.Broadcast)
		net.quiesceC.Wait()
		waker.Stop()
	}
	return nil
}

// Shutdown stops all node goroutines and waits for them to exit. Pending
// inbox items are discarded.
func (net *Network) Shutdown() {
	if net.stopped.Swap(true) {
		return
	}
	for _, nd := range net.nodes {
		nd.mu.Lock()
		nd.stop = true
		nd.cond.Broadcast()
		nd.mu.Unlock()
	}
	net.wg.Wait()
}

// Metrics snapshots the accumulated cost measures.
func (net *Network) Metrics() core.Metrics {
	return core.Metrics{
		Hops:           net.hops.Load(),
		Deliveries:     net.deliveries.Load(),
		CopyDeliveries: net.copies.Load(),
		Injections:     net.injections.Load(),
		LinkEvents:     net.linkEvents.Load(),
		Sends:          net.sends.Load(),
		Packets:        net.packets.Load(),
		Drops:          net.drops.Load(),
		DmaxViolations: net.dmaxViol.Load(),
		HeaderBits:     net.headerBits.Load(),
		MaxHeaderHops:  net.maxHdrHops.Load(),
		Filtered:       net.filtered.Load(),
		FaultDrops:     net.faultDrops.Load(),
		FaultDups:      net.faultDups.Load(),
		FaultCorrupts:  net.faultCorr.Load(),
		FaultJitters:   net.faultJitter.Load(),
		FaultReorders:  net.faultReorder.Load(),
		FaultSlowdowns: net.faultSlow.Load(),
		StallTicks:     net.stallTicks.Load(),
	}
}

func (net *Network) addInflight(d int64) {
	if atomic.AddInt64(&net.inflight, d) == 0 {
		net.quiesceMu.Lock()
		net.quiesceC.Broadcast()
		net.quiesceMu.Unlock()
	}
}

func (net *Network) loop(nd *gnode) {
	defer net.wg.Done()
	for {
		nd.mu.Lock()
		for len(nd.queue) == 0 && !nd.stop {
			nd.cond.Wait()
		}
		if nd.stop {
			nd.mu.Unlock()
			return
		}
		it := nd.queue[0]
		nd.queue = nd.queue[1:]
		stall := 0
		if nd.stallLeft > 0 {
			nd.stallLeft--
			stall = nd.stallYield
		}
		nd.mu.Unlock()
		if stall > 0 {
			// Stalled NCU: give every other runnable goroutine the processor
			// before this activation runs — slow, not dead.
			net.stallTicks.Add(int64(stall))
			for i := 0; i < stall; i++ {
				runtime.Gosched()
			}
		}

		act := net.actSeq.Add(1)
		nd.env.act = act
		switch {
		case it.linkEvent:
			net.linkEvents.Add(1)
			net.cfg.sink.Record(trace.Event{Kind: trace.KindLinkEvent, Time: act, Node: nd.id, Act: act})
			nd.proto.LinkEvent(&nd.env, it.port)
		case it.pkt.Injected:
			net.injections.Add(1)
			net.cfg.sink.Record(trace.Event{Kind: trace.KindInject, Time: act, Node: nd.id, Act: act})
			nd.proto.Deliver(&nd.env, it.pkt)
		default:
			net.deliveries.Add(1)
			net.perNode[nd.id].Add(1)
			if it.isCopy {
				net.copies.Add(1)
			}
			net.cfg.sink.Record(trace.Event{Kind: trace.KindDeliver, Time: act, Node: nd.id, Act: act, Msg: it.msg})
			nd.proto.Deliver(&nd.env, it.pkt)
		}
		nd.env.act = 0
		// Decrement only after processing so the counter cannot reach zero
		// while this activation's sends are still being produced.
		net.addInflight(-1)
	}
}

func (nd *gnode) enqueue(it item) {
	nd.mu.Lock()
	if it.reorder && len(nd.queue) > 0 {
		// Bounded reordering: a jittered delivery overtakes a random run of
		// already-queued packets instead of joining the tail.
		at := nd.env.net.randomQueuePos(len(nd.queue))
		nd.queue = append(nd.queue, item{})
		copy(nd.queue[at+1:], nd.queue[at:])
		nd.queue[at] = it
	} else {
		nd.queue = append(nd.queue, it)
	}
	nd.cond.Broadcast()
	nd.mu.Unlock()
}

// randomQueuePos draws an insertion index in [0, n] from the fault source.
func (net *Network) randomQueuePos(n int) int {
	net.faultMu.Lock()
	defer net.faultMu.Unlock()
	return net.faultRng.Intn(n + 1)
}

// faultKinds is the trace event a fired fault is recorded as.
var faultKinds = [...]trace.Kind{
	core.FaultDrop:     trace.KindFaultDrop,
	core.FaultDup:      trace.KindFaultDup,
	core.FaultCorrupt:  trace.KindFaultCorrupt,
	core.FaultJitter:   trace.KindFaultJitter,
	core.FaultReorder:  trace.KindFaultReorder,
	core.FaultSlowdown: trace.KindFaultSlow,
}

// route performs the hardware traversal synchronously and enqueues the
// resulting NCU deliveries.
func (net *Network) route(src core.NodeID, h anr.Header, payload any, act int64) error {
	if err := h.Validate(); err != nil {
		return err
	}
	if err := h.CheckDmax(net.cfg.dmax); err != nil {
		net.dmaxViol.Add(1)
		return err
	}
	msg := net.msgSeq.Add(1)
	linkUp := func(u core.NodeID, l anr.ID) bool {
		p, rerr := net.pm.Resolve(u, l)
		if rerr != nil {
			return false
		}
		return !net.down[graph.Edge{U: u, V: p.Remote}.Canon()]
	}
	// The lossy-link roller serializes rolls over the shared fault source;
	// fault trace events are emitted inline so they carry the message ID.
	var roll core.FaultRoller
	net.faultMu.Lock()
	faults := net.faults
	net.faultMu.Unlock()
	if faults.Enabled() {
		roll = func(at core.NodeID) core.MsgFault {
			net.faultMu.Lock()
			f := faults.Roll(net.faultRng)
			net.faultMu.Unlock()
			switch f {
			case core.FaultDrop:
				net.faultDrops.Add(1)
			case core.FaultDup:
				net.faultDups.Add(1)
			case core.FaultCorrupt:
				net.faultCorr.Add(1)
			case core.FaultJitter:
				net.faultJitter.Add(1)
			case core.FaultReorder:
				net.faultReorder.Add(1)
			case core.FaultSlowdown:
				net.faultSlow.Add(1)
			}
			if f != core.FaultNone {
				net.cfg.sink.Record(trace.Event{Kind: faultKinds[f], Time: act, Node: at, Msg: msg, Cause: f.String()})
			}
			return f
		}
	}
	corrupt := func(pl any) any {
		net.faultMu.Lock()
		defer net.faultMu.Unlock()
		return core.CorruptPayload(pl, net.faultRng)
	}
	net.mu.RLock()
	tr, err := core.WalkRouteFaults(net.pm, linkUp, net.cfg.filter, roll, corrupt, src, h, payload)
	net.mu.RUnlock()
	if err != nil {
		return err
	}
	net.packets.Add(1)
	net.hops.Add(int64(tr.Hops))
	hdrHops := int64(h.HopCount())
	net.headerBits.Add((hdrHops + 1) * int64(net.pm.IDWidth()+1))
	for {
		cur := net.maxHdrHops.Load()
		if hdrHops <= cur || net.maxHdrHops.CompareAndSwap(cur, hdrHops) {
			break
		}
	}
	net.cfg.sink.Record(trace.Event{Kind: trace.KindSend, Time: act, Node: src, Act: act, Msg: msg})
	if tr.Dropped {
		net.drops.Add(1)
		net.cfg.sink.Record(trace.Event{Kind: trace.KindDrop, Time: act, Node: tr.DroppedAt, Msg: msg})
	}
	if tr.Filtered {
		net.filtered.Add(1)
		net.cfg.sink.Record(trace.Event{Kind: trace.KindDrop, Time: act, Node: tr.DroppedAt, Msg: msg})
	}
	for _, d := range tr.Deliveries {
		pl := payload
		if d.Payload != nil {
			pl = d.Payload
		}
		net.addInflight(1)
		net.nodes[d.Node].enqueue(item{
			pkt: core.Packet{
				Payload:     pl,
				Remaining:   d.Remaining,
				Reverse:     d.Reverse,
				ArrivedOn:   d.ArrivedOn,
				ForwardedOn: d.ForwardedOn,
			},
			msg:     msg,
			isCopy:  d.Copy,
			reorder: d.Reordered,
		})
	}
	return nil
}

// --- genv: core.Env implementation ---

func (e *genv) ID() core.NodeID { return e.nd.id }

func (e *genv) Ports() []core.Port {
	// Port state is mutated under nd.mu by InjectLink; activations read it
	// under the same lock for a consistent snapshot.
	e.nd.mu.Lock()
	defer e.nd.mu.Unlock()
	return append([]core.Port(nil), e.nd.ports...)
}

func (e *genv) PortToward(nb core.NodeID) (core.Port, bool) {
	lid, ok := e.net.pm.Toward(e.nd.id, nb)
	if !ok {
		return core.Port{}, false
	}
	e.nd.mu.Lock()
	defer e.nd.mu.Unlock()
	return e.nd.ports[int(lid)-1], true
}

func (e *genv) Send(h anr.Header, payload any) error {
	e.net.sends.Add(1)
	return e.net.route(e.nd.id, h, payload, e.act)
}

func (e *genv) Multicast(hs []anr.Header, payload any) error {
	if err := core.ValidateMulticast(hs); err != nil {
		return err
	}
	e.net.sends.Add(1)
	for _, h := range hs {
		if err := e.net.route(e.nd.id, h, payload, e.act); err != nil {
			return err
		}
	}
	return nil
}

func (e *genv) Now() core.Time { return core.Time(e.net.actSeq.Load()) }

func (e *genv) Rand() *rand.Rand { return e.nd.rng }
