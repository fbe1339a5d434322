package sim

import (
	"math/rand"
	"slices"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// fill makes e a hop that pins one reference of every kind, keyed seq.
func fill(e *eventRec, seq uint64) {
	e.t, e.seq = 1, seq
	e.set(evHop, 1, int64(seq), 0, 1, 0, 0)
	e.payload, e.h, e.rev = seq, anr.Local(), anr.Local()
}

// pooled walks the free list, checking that no entry of a pooled chunk pins
// a reference, and returns the number of chunks on it.
func pooled(t *testing.T, p *chunkPool) int {
	t.Helper()
	n := 0
	for c := p.free; c != nil; c = c.next {
		n++
		for i := range c.evs {
			if e := &c.evs[i]; e.payload != nil || e.h != nil || e.rev != nil {
				t.Fatalf("pooled chunk %d entry %d still pins a reference: %+v", n, i, *e)
			}
		}
	}
	return n
}

// TestLaneMatchesSliceModel drives a lane and a plain slice through the same
// random alloc/drop sequence: bursts long enough to cross chunk boundaries,
// drains that empty the lane in the middle of a chunk.
func TestLaneMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var (
		pool  chunkPool
		lane  eventLane
		model []uint64
		next  uint64
		peak  int
	)
	for step := 0; step < 4000; step++ {
		burst := 1 + rng.Intn(3*laneChunk)
		if rng.Intn(2) == 0 {
			for i := 0; i < burst; i++ {
				next++
				fill(lane.alloc(&pool), next)
				model = append(model, next)
			}
			peak = max(peak, len(model))
		} else {
			for i := 0; i < burst && len(model) > 0; i++ {
				if got := lane.front().seq; got != model[0] {
					t.Fatalf("step %d: front is %d, model says %d", step, got, model[0])
				}
				lane.drop(&pool)
				model = model[1:]
			}
		}
		if lane.n != len(model) {
			t.Fatalf("step %d: lane holds %d, model %d", step, lane.n, len(model))
		}
		if len(model) == 0 && lane != (eventLane{}) {
			t.Fatalf("step %d: empty lane is %+v, want the zero value", step, lane)
		}
	}
	for lane.n > 0 {
		lane.drop(&pool)
	}
	if got := pooled(t, &pool); got != pool.made {
		t.Errorf("%d chunks on the free list after the drain, %d ever made", got, pool.made)
	}
	// One lane never needs more than its peak's worth of chunks plus the
	// partial ones at either end.
	if limit := peak/laneChunk + 2; pool.made > limit {
		t.Errorf("pool made %d chunks for a peak of %d entries (limit %d); %d entries were pushed", pool.made, peak, limit, next)
	}
}

// TestPoolHighWaterTracksInFlight: the pool grows to what the lanes hold at
// their fullest — peak entries / 16, plus one partial chunk per occupied
// lane — however many events pass through.
func TestPoolHighWaterTracksInFlight(t *testing.T) {
	const lanes, perLane, rounds = 8, 2*laneChunk + 8, 50
	var (
		pool chunkPool
		ring [lanes]eventLane
		seq  uint64
	)
	for r := 0; r < rounds; r++ {
		for i := 0; i < perLane; i++ {
			for s := range ring {
				seq++
				fill(ring[s].alloc(&pool), seq)
			}
		}
		for s := range ring {
			for ring[s].n > 0 {
				ring[s].drop(&pool)
			}
		}
	}
	if limit := lanes*perLane/laneChunk + lanes; pool.made > limit {
		t.Errorf("pool made %d chunks, want <= %d (peak %d entries in %d lanes)", pool.made, limit, lanes*perLane, lanes)
	}
	if pushed := lanes * perLane * rounds; pool.made*laneChunk*10 > pushed {
		t.Errorf("pool made %d chunks for %d pushes: it tracks pushes, not entries in flight", pool.made, pushed)
	}
	if got := pooled(t, &pool); got != pool.made {
		t.Errorf("%d chunks on the free list after the drain, %d ever made", got, pool.made)
	}
}

// TestStageSortsInPlace: a slot of shuffled keys spanning three chunks comes
// out of the stage in key order, and every chunk goes back to the pool.
func TestStageSortsInPlace(t *testing.T) {
	const n = 2*laneChunk + 5
	keys := rand.New(rand.NewSource(2)).Perm(n)
	var (
		pool  chunkPool
		slot  eventLane
		stage eventStage
	)
	for round := 0; round < 2; round++ { // the second round reuses the index and the chunks
		for _, k := range keys {
			fill(slot.alloc(&pool), uint64(k)+1)
		}
		if pool.made != 3 {
			t.Fatalf("slot of %d entries spans %d chunks, want 3", n, pool.made)
		}
		stage.load(&slot)
		if slot != (eventLane{}) || stage.len() != n {
			t.Fatalf("after load: slot %+v, stage holds %d, want an empty slot and %d", slot, stage.len(), n)
		}
		var got []uint64
		for stage.len() > 0 {
			e := stage.front()
			if e.payload != e.seq {
				t.Fatalf("entry keyed %d carries payload %v", e.seq, e.payload)
			}
			got = append(got, e.seq)
			stage.drop(&pool)
		}
		if !slices.IsSorted(got) || len(got) != n {
			t.Fatalf("stage order %v", got)
		}
		if free := pooled(t, &pool); free != 3 {
			t.Fatalf("%d chunks back in the pool, want all 3", free)
		}
	}
}

// burstProto sends k packets over one route on "go" and counts what arrives.
type burstProto struct {
	route anr.Header
	k     int
	got   []any
}

func (p *burstProto) Init(core.Env)                 {}
func (p *burstProto) LinkEvent(core.Env, core.Port) {}

func (p *burstProto) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Payload != "go" {
		p.got = append(p.got, pkt.Payload)
		return
	}
	for i := 0; i < p.k; i++ {
		if err := env.Send(p.route, i); err != nil {
			panic(err)
		}
	}
}

// TestGrowRingMovesSlotsWhole: a SetMsgFaults that widens the delay envelope
// re-buckets a pending slot spanning three chunks by moving the slot — no
// event is copied, no chunk drawn — and the run it interrupts is observably
// the run of a ring that was that wide from the start.
func TestGrowRingMovesSlotsWhole(t *testing.T) {
	const k, due = 2*laneChunk + 8, 671
	wide := core.MsgFaults{Jitter: 0.5, JitterMax: 200}
	run := func(opts ...Option) (*Network, []*burstProto, *trace.Serial) {
		protos := make([]*burstProto, 3)
		buf := trace.NewSerial(0)
		net := New(graph.Path(3), func(id core.NodeID) core.Protocol {
			protos[id] = &burstProto{route: anr.Direct([]anr.ID{1, 2}), k: k}
			return protos[id]
		}, append([]Option{WithDelays(70, 1), WithSeed(4), WithTrace(buf)}, opts...)...)
		// Late enough that the burst's slot index differs between the spans.
		net.Inject(due-71, 0, "go")
		if _, err := net.RunUntil(due - 70); err != nil { // the burst is on the wire
			t.Fatal(err)
		}
		return net, protos, buf
	}

	net, protos, buf := run()
	if got := len(net.ring); got != 512 {
		t.Fatalf("ring spans %d instants before the profile change, want 512", got)
	}
	old := &net.ring[due&net.ringMask]
	if old.n != k || old.head.next == nil || old.head.next.next != old.tail {
		t.Fatalf("slot of instant %d holds %d events, want %d in three chunks", due, old.n, k)
	}
	head, made := old.head, net.pool.made
	net.SetMsgFaults(wide)
	if got := len(net.ring); got != 2048 {
		t.Fatalf("ring spans %d instants after the profile change, want 2048", got)
	}
	moved := &net.ring[due&net.ringMask]
	if moved.n != k || moved.head != head || net.pool.made != made || net.ringPending != k {
		t.Fatalf("after growth the slot holds %d events (pending %d) at chunk %p in a pool of %d; want the same %d at %p, pool of %d",
			moved.n, net.ringPending, moved.head, net.pool.made, k, head, made)
	}
	if next := net.nextRingInstant(); next != due {
		t.Fatalf("next ring instant after growth is %d, want %d", next, due)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}

	ref, refProtos, refBuf := run(WithRingWindow(2048))
	ref.SetMsgFaults(wide)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if len(protos[2].got) == 0 || !slices.Equal(protos[2].got, refProtos[2].got) {
		t.Errorf("deliveries diverged: grown ring %v, fixed ring %v", protos[2].got, refProtos[2].got)
	}
	if net.Metrics() != ref.Metrics() || !slices.Equal(buf.Events(), refBuf.Events()) {
		t.Errorf("grown ring diverged from the fixed one:\n  grown %v\n  fixed %v", net.Metrics(), ref.Metrics())
	}
}
