// Package gosim is the goroutine-based runtime for fastnet protocols. Every
// NCU is a goroutine draining an unbounded FIFO inbox; the switching
// hardware is instantaneous: core.WalkRouteFaults takes the whole route at
// once, each hop a core.StepHop and each live link a core.MsgFaults.Cross,
// whose delays become reordered inbox insertion; scheduling nondeterminism
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

var _ core.Runtime = (*Network)(nil)

// Network is a running goroutine network.
type Network struct {
	g   *graph.Graph
	pm  *core.PortMap
	cfg config

	mu    sync.RWMutex // guards links: InjectLink writes; walks and Env.Ports read
	links core.Links

	faultMu  sync.Mutex // guards faults + faultRng
	faults   core.MsgFaults
	faultRng *rand.Rand

	nodes []*gnode
	wg    sync.WaitGroup

	inflight  int64 // pending deliveries; quiescent when 0
	quiesceMu sync.Mutex
	quiesceC  *sync.Cond

	actSeq  atomic.Int64
	msgSeq  atomic.Int64
	stopped atomic.Bool
	failed  atomic.Pointer[core.HandlerError] // the first Env.Fail; later deliveries are discarded
}

type item struct {
	pkt       core.Packet
	linkEvent bool
	port      core.Port
	msg       int64
	isCopy    bool
	// reorder marks deliveries behind a fault that delayed the packet: they
	// are enqueued at a random inbox position instead of the tail (bounded
	// reordering).
	reorder bool
}

type gnode struct {
	id    core.NodeID
	proto core.Protocol
	rng   *rand.Rand
	// metrics is this node's share of the network's: every counter is bumped
	// on the goroutine of the node sending or being activated, so it needs no
	// lock of its own (see Network.Metrics).
	metrics core.Metrics

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
		links:    core.NewLinks(pm),
		faults:   cfg.faults,
		faultRng: rand.New(rand.NewSource(cfg.seed ^ 0x10551e5)),
		nodes:    make([]*gnode, g.N()),
	}
	net.quiesceC = sync.NewCond(&net.quiesceMu)
	for i := range net.nodes {
		nd := &gnode{
			id:    core.NodeID(i),
			proto: f(core.NodeID(i)),
			rng:   rand.New(rand.NewSource(cfg.seed + int64(i) + 1)),
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
	net.checkNode("Inject", v)
	net.addInflight(1)
	net.nodes[v].enqueue(item{pkt: core.Packet{
		Payload:   payload,
		Reverse:   anr.Local(),
		ArrivedOn: anr.NCU,
		Injected:  true,
	}})
}

// checkNode refuses a node outside the graph before the driver call op
// changes anything.
func (net *Network) checkNode(op string, v core.NodeID) {
	if v < 0 || int(v) >= net.g.N() {
		// precondition: a driver names only nodes of its own graph.
		panic(fmt.Sprintf("gosim: %s at node %d, outside the graph's %d nodes", op, v, net.g.N()))
	}
}

// InjectLink flips the hardware state of edge {u, v} and notifies both NCUs,
// under the name it has on the discrete-event runtime (the soak scripts both
// through one interface).
func (net *Network) InjectLink(u, v core.NodeID, up bool) {
	if !net.g.HasEdge(u, v) {
		// precondition: a driver scripts only edges of its own graph.
		panic(fmt.Sprintf("gosim: InjectLink on non-edge %d-%d", u, v))
	}
	net.mu.Lock()
	atU, atV := net.links.Flip(u, v, up), net.links.Flip(v, u, up)
	net.mu.Unlock()
	net.addInflight(2)
	net.nodes[u].enqueue(item{linkEvent: true, port: atU})
	net.nodes[v].enqueue(item{linkEvent: true, port: atV})
}

// LinkUp reports the current hardware state of edge {u, v}.
func (net *Network) LinkUp(u, v core.NodeID) bool {
	net.mu.RLock()
	defer net.mu.RUnlock()
	return net.links.Up(u, v)
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
	net.checkNode("StallNode", v)
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
	net.checkNode("CrashNode", v)
	for _, nb := range net.g.Neighbors(v) {
		net.InjectLink(v, nb, false)
	}
}

// RestoreNode is the reverse of CrashNode: every incident link comes back up
// at once and both endpoints are notified.
func (net *Network) RestoreNode(v core.NodeID) {
	net.checkNode("RestoreNode", v)
	for _, nb := range net.g.Neighbors(v) {
		net.InjectLink(v, nb, true)
	}
}

// AwaitQuiescence blocks until no deliveries are pending or the timeout
// elapses. After a handler's Env.Fail it returns that *core.HandlerError.
func (net *Network) AwaitQuiescence(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	net.quiesceMu.Lock()
	defer net.quiesceMu.Unlock()
	for atomic.LoadInt64(&net.inflight) != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w (%d in flight)", ErrTimeout, atomic.LoadInt64(&net.inflight))
		}
		// Wake periodically so the deadline is honored even without
		// counter transitions. The waker takes the lock, so it cannot fire
		// between the check above and Wait and be lost: a network that never
		// quiesces would then hold this call past its deadline.
		waker := time.AfterFunc(time.Millisecond, func() {
			net.quiesceMu.Lock()
			net.quiesceC.Broadcast()
			net.quiesceMu.Unlock()
		})
		net.quiesceC.Wait()
		waker.Stop()
	}
	if f := net.failed.Load(); f != nil {
		return f
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

// Metrics sums the nodes' cost measures. Like Protocol, it is for a network
// that is quiescent or shut down: the in-flight counter reaching zero (or the
// goroutines' exit) is what orders every node's counting before the read.
func (net *Network) Metrics() core.Metrics {
	var m core.Metrics
	for _, nd := range net.nodes {
		m.Add(nd.metrics)
	}
	return m
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
			nd.metrics.StallTicks += int64(stall)
			for i := 0; i < stall; i++ {
				runtime.Gosched()
			}
		}

		act := net.actSeq.Add(1)
		nd.env.act = act
		switch {
		case net.failed.Load() != nil: // a failed run discards, and so quiesces
		case it.linkEvent:
			nd.metrics.LinkEvents++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindLinkEvent, Time: act, Node: nd.id, Act: act})
			nd.proto.LinkEvent(&nd.env, it.port)
		case it.pkt.Injected:
			nd.metrics.Injections++
			net.cfg.sink.Record(trace.Event{Kind: trace.KindInject, Time: act, Node: nd.id, Act: act})
			nd.proto.Deliver(&nd.env, it.pkt)
		default:
			nd.metrics.Deliveries++
			if it.isCopy {
				nd.metrics.CopyDeliveries++
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

// route admits the packet, performs the hardware traversal synchronously and
// enqueues the resulting NCU deliveries. It runs on the goroutine of nd, the
// sender, inside the activation nd.env.act, and counts into nd's metrics.
func (net *Network) route(nd *gnode, h anr.Header, payload any) error {
	m, act := &nd.metrics, nd.env.act
	if err := net.pm.Admit(m, nd.id, h, net.cfg.dmax); err != nil {
		return err
	}
	msg := net.msgSeq.Add(1)
	net.cfg.sink.Record(trace.Event{Kind: trace.KindSend, Time: act, Node: nd.id, Act: act, Msg: msg})
	// The roller serializes Cross over the shared fault source; the ledger
	// records each inline, so fault events carry the message ID. With no
	// clock, gosim crosses with C = 0 and spends a delay as Reordered.
	var roll core.FaultRoller
	net.faultMu.Lock()
	faults := net.faults
	net.faultMu.Unlock()
	if faults.Enabled() {
		roll = func(at core.NodeID, pl any) (core.MsgFault, any, core.Time) {
			net.faultMu.Lock()
			f, pl, delay := faults.Cross(net.faultRng, 0, pl)
			net.faultMu.Unlock()
			f.Count(m, net.cfg.sink, act, at, msg)
			return f, pl, delay
		}
	}
	net.mu.RLock()
	tr := core.WalkRouteFaults(net.links, net.cfg.filter, roll, nd.id, h, payload)
	net.mu.RUnlock()
	m.Hops += int64(tr.Hops)
	m.Drops += int64(len(tr.Dropped))
	m.Filtered += int64(len(tr.Filtered))
	for _, at := range append(tr.Dropped, tr.Filtered...) {
		net.cfg.sink.Record(trace.Event{Kind: trace.KindDrop, Time: act, Node: at, Msg: msg})
	}
	for _, d := range tr.Deliveries {
		net.addInflight(1)
		net.nodes[d.Node].enqueue(item{pkt: d.Packet, msg: msg, isCopy: d.Copy, reorder: d.Reordered})
	}
	return nil
}

// --- genv: core.Env implementation ---

func (e *genv) ID() core.NodeID { return e.nd.id }

func (e *genv) Ports() []core.Port {
	// Link state is written under net.mu by InjectLink; activations read it
	// under the same lock for a consistent snapshot.
	e.net.mu.RLock()
	defer e.net.mu.RUnlock()
	return append([]core.Port(nil), e.net.links[e.nd.id]...)
}

func (e *genv) PortToward(nb core.NodeID) (core.Port, bool) {
	e.net.mu.RLock()
	defer e.net.mu.RUnlock()
	return e.net.links.Toward(e.nd.id, nb)
}

func (e *genv) Send(h anr.Header, payload any) error {
	e.nd.metrics.Sends++
	return e.net.route(e.nd, h, payload)
}

func (e *genv) Multicast(hs []anr.Header, payload any) error {
	return core.Multicast(&e.nd.metrics, hs, func(h anr.Header) error { return e.net.route(e.nd, h, payload) })
}

func (e *genv) Now() core.Time { return core.Time(e.net.actSeq.Load()) }

func (e *genv) Rand() *rand.Rand { return e.nd.rng }

func (e *genv) Fail(err error) {
	e.net.failed.CompareAndSwap(nil, &core.HandlerError{Node: e.nd.id, Time: core.Time(e.act), Cause: err})
}
