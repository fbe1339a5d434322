package sim_test

import (
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
)

// The finite-resource model (sim.WithCapacity) and NCU stalls as rows on
// both columns of the table; a capacity row skips the reference engine,
// which has no capacity model. On the shard side a capacity network's token
// buckets and queue counters are shared by the shards that own their nodes.

// hub is a one-leaf star under a capacity model: leaf 1 sends bursts of per
// packets to hub 0, at C = 1 and P = p.
func hub(name string, per int, p core.Time, c core.Capacity, steps ...any) scenario {
	return scenario{name: name, graph: graphSpec{family: star, n: 2}, proto: backlog, burst: per, c: 1, p: p, seed: 1, capacity: c,
		steps: script(steps...)}
}

// traced counts the trace events of kind k, all of them at node at.
func traced(t *testing.T, o obs, k trace.Kind, at core.NodeID) int64 {
	t.Helper()
	var n int64
	for _, e := range o.events {
		if e.Kind == k {
			if e.Node != at {
				t.Fatalf("%v at node %d, want %d", k, e.Node, at)
			}
			n++
		}
	}
	return n
}

// TestCapacityQueueDrop: with a finite NCU service queue, simultaneous
// arrivals beyond the cap are rejected at the NCU boundary — counted,
// trace-tagged, and never delivered — while admitted ones accumulate queueing
// delay in QueueTicks. Ten packets reach the hub at t = 12; the first two fit
// the backlog cap, the other eight are dropped before either admitted
// activation completes (P = 10), and the second waits one full service time
// behind the first.
func TestCapacityQueueDrop(t *testing.T) {
	for _, o := range both(t, hub("capacity-queue", 10, 10, core.Capacity{NCUQueue: 2}, injectAt(1, 1), runAll())) {
		if m := o.metrics; m.CapQueueDrops != 8 || o.deliveries[0] != 2 || m.QueueTicks != 10 || traced(t, o, trace.KindCapQueueDrop, 0) != 8 {
			t.Fatalf("%d queue drops (%d traced), %d delivered, QueueTicks %d; want 8, 2 and 10", m.CapQueueDrops, traced(t, o, trace.KindCapQueueDrop, 0), o.deliveries[0], m.QueueTicks)
		}
	}
}

// TestCapacityLinkDrop: a starved token bucket rejects traversals at the
// link — the bucket starts at the burst depth, so exactly that many
// back-to-back packets pass before the refill rate takes over. The flood row
// takes drops of both kinds on every shard.
func TestCapacityLinkDrop(t *testing.T) {
	for _, o := range both(t, hub("capacity-link", 5, 1, core.Capacity{LinkRate: 0.001, LinkBurst: 1}, injectAt(1, 1), runAll())) {
		if o.deliveries[0] != 1 || o.metrics.CapLinkDrops != 4 || traced(t, o, trace.KindCapLinkDrop, 1) != 4 {
			t.Fatalf("%d delivered, %d link drops (%d traced); want 1 (the burst depth) and 4", o.deliveries[0], o.metrics.CapLinkDrops, traced(t, o, trace.KindCapLinkDrop, 1))
		}
	}
	flood := scenario{name: "capacity-flood", graph: graphSpec{n: 48, p: 0.12, seed: 7}, mode: topology.ModeFlood, c: 2, p: 1, seed: 3,
		capacity: core.Capacity{NCUQueue: 3, LinkRate: 0.2, LinkBurst: 2}, steps: script(injectEvery(48, 4, 3), runAll())}
	for _, o := range both(t, flood) {
		if o.metrics.CapLinkDrops == 0 || o.metrics.CapQueueDrops == 0 {
			t.Fatalf("the capacity flood dropped %d at links, %d at queues: want both", o.metrics.CapLinkDrops, o.metrics.CapQueueDrops)
		}
	}
}

// TestCapacityRefillAdmits: spacing the same offered load out past the
// refill interval admits everything — the lazy refill really accrues tokens:
// one packet every 20 ticks at refill rate 0.1 finds a full bucket.
func TestCapacityRefillAdmits(t *testing.T) {
	s := hub("capacity-refill", 1, 1, core.Capacity{LinkRate: 0.1, LinkBurst: 1})
	for i := range 5 {
		s.steps = append(s.steps, injectAt(core.Time(i*20), 1))
	}
	s.steps = append(s.steps, runAll())
	for _, o := range both(t, s) {
		if o.metrics.CapLinkDrops != 0 || o.deliveries[0] != 5 {
			t.Fatalf("%d link drops, %d delivered under spaced load; want 0 and 5", o.metrics.CapLinkDrops, o.deliveries[0])
		}
	}
}

// TestCapacityZeroTransparent: the zero Capacity is bit-for-bit the same as
// never mentioning capacity at all, and generous limits change nothing but
// the (gated) queue-delay account, on both contracts.
func TestCapacityZeroTransparent(t *testing.T) {
	s := ring8("capacity-zero", core.MsgFaults{Drop: 0.05, Dup: 0.05, Jitter: 0.1, JitterMax: 5})
	bare := both(t, s)
	s.capacity = core.Capacity{NCUQueue: 1 << 20, LinkRate: 1e9, LinkBurst: 1e9}
	for i, big := range both(t, s) {
		big.metrics.QueueTicks = 0
		for j := range big.steps {
			big.steps[j].metrics.QueueTicks = 0
		}
		if d := diverge(bare[i], big, false); d != "" {
			t.Errorf("generous capacity changed more than QueueTicks: %s", d)
		}
	}
	// The zero Capacity is not even passed on: play adds WithCapacity only
	// for an enabled model, so compare the option itself.
	s.capacity = core.Capacity{}
	for _, e := range []engine{classicSide[0], shardSide[1]} {
		if d := diverge(play(t, s, e), play(t, s, e, sim.WithCapacity(core.Capacity{})), false); d != "" {
			t.Errorf("%s: zero capacity diverged at %s", e.name, d)
		}
	}
}

// TestStallNodeInflatesSoftwareDelay: activations inside the stall window pay
// the surcharge (accounted in StallTicks); after the window the node is back
// to its configured speed. The hub is stalled for 10 ticks by 7: the first
// packet arrives at 2 and is done at 2 + 1 + 7 = 10, the second, injected at
// 20, is done at 23.
func TestStallNodeInflatesSoftwareDelay(t *testing.T) {
	s := hub("stall", 1, 1, core.Capacity{}, step{op: stall, node: 0, window: 10, extra: 7}, injectAt(0, 1), injectAt(20, 1), runAll())
	for _, o := range both(t, s) {
		var done []int64
		for _, e := range o.events {
			if e.Kind == trace.KindDeliver && e.Node == 0 {
				done = append(done, e.Time)
			}
		}
		if len(done) != 2 || done[0] != 10 || done[1] != 23 || o.metrics.StallTicks != 7 {
			t.Fatalf("hub done at %v, StallTicks %d; want [10 23] and 7 (one stalled activation)", done, o.metrics.StallTicks)
		}
	}
}
