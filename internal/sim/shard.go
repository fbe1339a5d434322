// Sharded space-parallel execution: the graph is partitioned across worker
// shards (internal/graph.PartitionK) and each shard runs its own event core
// inside conservative synchronous windows. The lookahead is the model's
// minimum hop delay: every hop, cross-shard or not, takes at least that long,
// so inside the window [W, W+lookahead-1] the shards cannot influence each
// other and run in parallel; boundary packets are exchanged at the barrier
// and always land in a later window. The width does not depend on what the
// partition cuts. A model whose minimum hop delay is 0 has no lookahead and
// runs on one serial shard. See docs/PERF.md ("Sharded space-parallel
// execution") for the design, the determinism contract, and the proof sketch.

package sim

import (
	"errors"
	"math/rand"
	"sort"
	"sync"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// WithShards selects the shard-mode engine with p workers (p is a cap: a
// graph with fewer nodes gets fewer parts, and a model with hardware delay 0
// runs on one). Shard mode is a different stream contract than the classic
// serial scheduler — delay and fault draws, and activation/message labels,
// come from per-node streams instead of network-global ones, and
// same-instant dispatch follows a canonical (time, origin) order — precisely
// so that every observable (traces, metrics, ledgers, per-node vectors) is
// byte-identical for every p >= 1 on the same scenario. WithShards(1) is the
// serial reference execution of that contract; shard differential tests
// compare it against p > 1. WithShards(0) (or omitting the option) keeps the
// classic scheduler and its pinned golden streams.
func WithShards(p int) Option {
	return func(cf *config) {
		if p < 0 {
			p = 0
		}
		cf.shards = p
	}
}

// minHwDelay is the smallest hardware delay any live hop can take under the
// configuration: exact delays always pay C; randomized delays draw from
// [1, C]. Fault-injected extra delays (jitter, reorder, slowdown) only add,
// so this bound survives every fault profile. It is the shard lookahead.
func (cf *config) minHwDelay() core.Time {
	if cf.hwDelay <= 0 {
		return 0
	}
	if cf.randomize {
		return 1
	}
	return cf.hwDelay
}

// shardGroup coordinates the facade Network's child shards.
type shardGroup struct {
	fac       *Network
	children  []*Network
	assign    []int32 // node -> shard
	lookahead core.Time
	cutEdges  int
	active    []*Network // scratch: participants of the current window
}

// ShardInfo describes the partition a sharded network runs on.
type ShardInfo struct {
	// Shards is the number of event cores executing the run (1 for the
	// classic scheduler and the shard-mode serial reference).
	Shards int
	// CutEdges is the number of edges crossing shard boundaries.
	CutEdges int
	// Lookahead is the synchronous-window width: the model's minimum hop
	// delay, whatever the partition cuts (0 when there is a single shard).
	Lookahead core.Time
}

// ShardInfo reports the partition statistics of the sharded engine.
func (net *Network) ShardInfo() ShardInfo {
	if net.group == nil {
		return ShardInfo{Shards: 1}
	}
	return ShardInfo{
		Shards:    len(net.group.children),
		CutEdges:  net.group.cutEdges,
		Lookahead: net.group.lookahead,
	}
}

// buildShards finishes construction of a shard-mode network: it partitions
// the graph, creates the child event cores, and repoints every node's env at
// its owning child. Called by New after the facade's nodes exist but before
// protocol Init. The window width is the model's minimum hop delay. With no
// lookahead (hardware delay 0), one node, or WithShards(1), the facade itself
// becomes the single serial shard.
func (net *Network) buildShards() {
	net.shardMode, net.sp.keyed = true, true
	net.curOrigin = -1
	net.scriptCtr = new(uint64)
	net.rng = rand.New(&net.pcg)
	// Stream (seed, v, hw|flt) starts at PCG state (seed, odd × stream
	// index): distinct for every stream, as an odd multiplier is a bijection.
	net.streams = make([]nodeStreams, net.g.N())
	for v := range net.streams {
		net.streams[v].hw.Seed(uint64(net.cfg.seed), 0x9E3779B97F4A7C15*uint64(2*v+1))
		net.streams[v].flt.Seed(uint64(net.cfg.seed), 0x9E3779B97F4A7C15*uint64(2*v+2))
	}
	if _, discard := net.cfg.sink.(trace.Discard); !discard {
		net.userSink = net.cfg.sink
		net.tb = &traceBuf{}
		net.cfg.sink = net.tb
	}

	d := net.cfg.minHwDelay()
	if d <= 0 || net.cfg.shards <= 1 || net.g.N() < 2 {
		return // serial shard-mode reference: the facade is the one shard
	}
	part := graph.PartitionK(net.g, net.cfg.shards, net.cfg.seed)
	grp := &shardGroup{
		fac:       net,
		assign:    part.Assign,
		lookahead: d,
		cutEdges:  part.CutEdges,
	}
	for s := 0; s < part.K; s++ {
		ch := &Network{
			g:         net.g,
			pm:        net.pm,
			cfg:       net.cfg,
			links:     net.links,
			nodes:     net.nodes, // shared; each shard touches only owned rows
			streams:   net.streams,
			perNode:   net.perNode,
			busy:      net.busy,
			shardMode: true,
			shardID:   int32(s),
			assign:    part.Assign,
			outbox:    make([][]timedEvent, part.K),
			scriptCtr: net.scriptCtr,
			curOrigin: -1,
		}
		ch.sp.keyed, ch.rng = true, rand.New(&ch.pcg)
		ch.sp.initRing(ch.cfg.ringSize())
		ch.sp.fixed = ch.cfg.ringWindow > 0
		if net.tb != nil {
			ch.tb = &traceBuf{}
			ch.cfg.sink = ch.tb
		}
		grp.children = append(grp.children, ch)
	}
	net.group = grp
	for i := range net.nodes {
		net.nodes[i].env.net = grp.children[part.Assign[i]]
	}
}

// ownerOf returns the event core that owns node v: the child shard in a
// sharded group, the network itself otherwise.
func (net *Network) ownerOf(v core.NodeID) *Network {
	if net.group != nil {
		return net.group.children[net.group.assign[v]]
	}
	return net
}

// ownsNode reports whether this event core dispatches node v's events.
func (net *Network) ownsNode(v core.NodeID) bool {
	return net.assign == nil || net.assign[v] == net.shardID
}

// run is the synchronous-window coordinator: find the earliest pending event
// across shards, run every shard with work in [W, W+lookahead-1] in parallel,
// then exchange boundary packets at the barrier. Cross-shard packets always
// land strictly after the window (send time >= W, delay >= lookahead), so no
// shard can ever see an event for an instant it has already passed. The
// facade's clock reads what one core's would (runCore): a run ends at the
// deadline if anything is still pending, else at its last dispatched instant
// (at a failure, the failure's), and every child aligns. runTop has already refused a failed network and a
// deadline behind the clock.
func (grp *shardGroup) run(deadline core.Time) (core.Time, error) {
	fac := grp.fac
	var errs []error
	clock := fac.sp.now
	for {
		w := core.Time(-1)
		for _, ch := range grp.children {
			if t := ch.sp.nextTime(); t >= 0 && (w < 0 || t < w) {
				w = t
			}
		}
		if w < 0 || w > deadline || len(errs) > 0 {
			if w >= 0 && deadline != noDeadline {
				clock = deadline
			}
			break
		}
		end := min(w+grp.lookahead-1, deadline)
		grp.active = grp.active[:0]
		for _, ch := range grp.children {
			if t := ch.sp.nextTime(); t >= 0 && t <= end {
				grp.active = append(grp.active, ch)
			}
		}
		if len(grp.active) == 1 {
			if _, err := grp.active[0].runCore(end); err != nil {
				errs = append(errs, err)
			}
		} else {
			werrs := make([]error, len(grp.active))
			var wg sync.WaitGroup
			for i, ch := range grp.active {
				wg.Add(1)
				go func(i int, ch *Network) {
					defer wg.Done()
					_, werrs[i] = ch.runCore(end)
				}(i, ch)
			}
			wg.Wait()
			for _, err := range werrs {
				if err != nil {
					errs = append(errs, err)
				}
			}
		}
		for _, ch := range grp.active {
			clock = max(clock, ch.sp.now)
		}
		// Barrier: align clocks and drain the boundary outboxes into the
		// destination rings and heaps, each in push order (see nextKey).
		for _, ch := range grp.children {
			ch.sp.now = max(ch.sp.now, end)
		}
		for _, src := range grp.children {
			for dst, box := range src.outbox {
				for i := range box {
					e := &box[i]
					*grp.children[dst].sp.place(e.t, e.ev.seq) = e.ev
				}
				clear(box) // the events now live in dst; drop the references
				src.outbox[dst] = box[:0]
			}
		}
	}
	// With anything pending the clock is the deadline, which no child passed;
	// else every spine is empty and a child may move back over nothing. A
	// failed run stops at the failure's instant, as one core does, though the
	// other children ran on to the end of its window.
	f := grp.failure()
	if f != nil {
		clock = f.Time
	}
	for _, ch := range grp.children {
		ch.sp.now = clock
	}
	fac.sp.now = clock
	if fac.userSink != nil {
		flushShardTrace(grp.children, fac.userSink)
	}
	if f != nil {
		return fac.Metrics().FinishTime, f
	}
	return fac.Metrics().FinishTime, errors.Join(errs...)
}

// failure is the run's Env.Fail: each shard stops at its own first, and the
// earliest, ties to the lower node, is the run's.
func (grp *shardGroup) failure() *core.HandlerError {
	var first *core.HandlerError
	for _, ch := range grp.children {
		if f := ch.failed; f != nil && (first == nil || f.Time < first.Time || f.Time == first.Time && f.Node < first.Node) {
			first = f
		}
	}
	return first
}

// traceBuf is the private, lock-free sink each shard records into; the
// facade merges the buffers into the user's sink at the end of every run.
type traceBuf struct {
	evs []trace.Event
}

func (b *traceBuf) Record(e trace.Event) { b.evs = append(b.evs, e) }

// flushShardTrace merges the shards' private trace buffers into the user's
// sink in the shard-mode canonical stream order: (Time, Node), with each
// node's own events in its dispatch order (the buffers are appended in child
// order and the sort is stable; all events of one node live in one buffer).
// The merged stream is a pure function of the scenario — independent of the
// shard count — which is what lets golden hashes pin it. The serial reference
// (one shard) goes through the same merge, so its stream is identical.
func flushShardTrace(nets []*Network, sink trace.Sink) {
	total := 0
	for _, ch := range nets {
		if ch.tb != nil {
			total += len(ch.tb.evs)
		}
	}
	if total == 0 {
		return
	}
	merged := make([]trace.Event, 0, total)
	for _, ch := range nets {
		if ch.tb != nil {
			merged = append(merged, ch.tb.evs...)
			ch.tb.evs = ch.tb.evs[:0]
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Time != merged[j].Time {
			return merged[i].Time < merged[j].Time
		}
		return merged[i].Node < merged[j].Node
	})
	for _, e := range merged {
		sink.Record(e)
	}
}
