package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// fill makes e a hop that pins one reference of every kind, keyed seq.
func fill(e *eventRec, seq uint64) {
	e.seq = seq
	e.set(evHop, 1, int64(seq), 0, 1, 0, 0)
	e.carry(seq, anr.Local(), anr.Local())
}

// pooled walks the free list, checking that no entry of a pooled chunk pins
// a reference, and returns the number of chunks on it.
func pooled(t *testing.T, p *chunkPool) int {
	t.Helper()
	n := 0
	for c := p.free; c != nil; c = c.next {
		n++
		for i := range c.evs {
			if e := &c.evs[i]; e.refs != (refs{}) {
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
// their fullest — peak entries / laneChunk, plus one partial chunk per occupied
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

// chunkSink keeps TestEventRecordFitsItsClass's chunks on the heap.
var chunkSink [100]*chunk

// TestEventRecordFitsItsClass pins what one event in flight costs: the record
// is at most 80 bytes, and the allocator's size class for a chunk — measured
// as the bytes 100 allocations add to TotalAlloc — leaves less than one
// record unused, so laneChunk is as large as its class allows.
func TestEventRecordFitsItsClass(t *testing.T) {
	rec, size := reflect.TypeOf(eventRec{}).Size(), reflect.TypeOf(chunk{}).Size()
	if rec > 80 {
		t.Errorf("eventRec is %d bytes, want <= 80", rec)
	}
	class := ^uint64(0)
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range chunkSink {
			chunkSink[i] = new(chunk)
		}
		runtime.ReadMemStats(&after)
		class = min(class, (after.TotalAlloc-before.TotalAlloc)/uint64(len(chunkSink)))
	}
	chunkSink = [len(chunkSink)]*chunk{}
	t.Logf("record %d B, chunk %d B of %d events in a %d-B class: %.1f B per event", rec, size, laneChunk, class, float64(class)/laneChunk)
	if slack := int64(class) - int64(size); slack < 0 || slack >= int64(rec) {
		t.Errorf("a %d-B chunk of %d records takes a %d-B class: %d B unused, want less than one %d-B record", size, laneChunk, class, slack, rec)
	}
}

// TestStageSortsInPlace: a slot spanning three chunks, keyed the way nextKey
// keys events — origins interleaved, each origin's counter ascending in push
// order — comes out of the stage in key order, and every chunk goes back to
// the pool. The origin fields need one, two and three counting passes, and
// none when every entry shares its origin.
func TestStageSortsInPlace(t *testing.T) {
	const n = 2*laneChunk + 5
	rng := rand.New(rand.NewSource(2))
	var (
		pool  chunkPool
		slot  eventLane
		stage eventStage
	)
	for _, origins := range [][]uint64{
		{0, 1, 2, 7, 255},
		{0, 3, 256, 4000, 65535},
		{0, 9, 300, 65536, 70000, 1<<24 - 1},
		{300},
	} { // each case reuses the index and the chunks of the one before
		ctr := map[uint64]uint64{}
		var keys []uint64
		for i := 0; i < n; i++ {
			o := origins[rng.Intn(len(origins))]
			ctr[o]++
			keys = append(keys, o<<originShift|ctr[o])
			fill(slot.alloc(&pool), keys[i])
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
		slices.Sort(keys)
		if !slices.Equal(got, keys) {
			t.Fatalf("origins %v: stage order %x, want %x", origins, got, keys)
		}
		if free := pooled(t, &pool); free != 3 {
			t.Fatalf("%d chunks back in the pool, want all 3", free)
		}
	}
}

// TestStageLoadAllocs: once the stage's buffer has grown to the largest slot,
// promoting a slot allocates nothing, whatever its size and however many
// counting passes its origins need.
func TestStageLoadAllocs(t *testing.T) {
	var (
		pool  chunkPool
		slot  eventLane
		stage eventStage
	)
	promote := func(n int) {
		for i := 0; i < n; i++ {
			slot.alloc(&pool).seq = uint64(i*7919%70000)<<originShift | uint64(i+1)
		}
		stage.load(&slot)
		for stage.len() > 0 {
			stage.drop(&pool)
		}
	}
	promote(20000)
	for _, n := range []int{1, 2, 17, 300, 4096, 20000} {
		if got := testing.AllocsPerRun(5, func() { promote(n) }); got != 0 {
			t.Errorf("promoting a slot of %d entries allocated %v objects, want 0", n, got)
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

// TestGrowRingMovesSlotsWhole: both ways the ring grows — on demand, when a
// push lands just past the span, and when a SetMsgFaults widens the delay
// envelope — re-bucket a pending slot spanning three chunks by moving the
// slot — no event is copied, no chunk drawn — and the run they interrupt is
// observably the run of a ring that was that wide from the start.
func TestGrowRingMovesSlotsWhole(t *testing.T) {
	// The burst's slot index differs between spans 512, 1024 and 2048, and
	// the "go" injection lies two spans out, so it waits in the heap rather
	// than growing the ring.
	const k, due = 2*laneChunk + 8, 1695
	wide := core.MsgFaults{Jitter: 0.5, JitterMax: 200}
	run := func(opts ...Option) (*Network, []*burstProto, *trace.Serial) {
		protos := make([]*burstProto, 3)
		buf := trace.NewSerial(0)
		net := New(graph.Path(3), func(id core.NodeID) core.Protocol {
			protos[id] = &burstProto{route: anr.Direct([]anr.ID{1, 2}), k: k}
			return protos[id]
		}, append([]Option{WithDelays(70, 1), WithSeed(4), WithTrace(buf)}, opts...)...)
		net.Inject(due-71, 0, "go")
		if _, err := net.RunUntil(due - 70); err != nil { // the burst is on the wire
			t.Fatal(err)
		}
		return net, protos, buf
	}
	late := core.Time(due - 70 + 513) // just past a 512-slot span

	net, protos, buf := run()
	if got := len(net.sp.ring); got != 512 {
		t.Fatalf("ring spans %d instants before any growth, want 512", got)
	}
	old := &net.sp.ring[due&net.sp.mask]
	if old.n != k || old.head.next == nil || old.head.next.next != old.tail {
		t.Fatalf("slot of instant %d holds %d events, want %d in three chunks", due, old.n, k)
	}
	if net.sp.pool.free == nil {
		t.Fatal("no free chunk for the late injection's slot")
	}
	head, made := old.head, net.sp.pool.made
	for _, grow := range []struct {
		name string
		do   func()
		span int
	}{
		{"a push just past the span", func() { net.Inject(late, 0, "late") }, 1024},
		{"the profile change", func() { net.SetMsgFaults(wide) }, 2048},
	} {
		grow.do()
		if got := len(net.sp.ring); got != grow.span {
			t.Fatalf("ring spans %d instants after %s, want %d", got, grow.name, grow.span)
		}
		moved := &net.sp.ring[due&net.sp.mask]
		if moved.n != k || moved.head != head || net.sp.pool.made != made || net.sp.pending != k+1 {
			t.Fatalf("after %s the slot holds %d events (pending %d) at chunk %p in a pool of %d; want the same %d at %p, pool of %d",
				grow.name, moved.n, net.sp.pending, moved.head, net.sp.pool.made, k, head, made)
		}
		if next := net.sp.nextRingInstant(); next != due {
			t.Fatalf("next ring instant after %s is %d, want %d", grow.name, next, due)
		}
	}
	if net.sp.stats.RingOverflows != 1 {
		t.Fatalf("%d ring overflows, want 1: the far injection alone", net.sp.stats.RingOverflows)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}

	ref, refProtos, refBuf := run(WithFixedRing(2048))
	ref.Inject(late, 0, "late")
	ref.SetMsgFaults(wide)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(protos[0].got, []any{"late"}) || !slices.Equal(refProtos[0].got, []any{"late"}) {
		t.Errorf("late injection delivered %v on the grown ring, %v on the fixed one", protos[0].got, refProtos[0].got)
	}
	if len(protos[2].got) == 0 || !slices.Equal(protos[2].got, refProtos[2].got) {
		t.Errorf("deliveries diverged: grown ring %v, fixed ring %v", protos[2].got, refProtos[2].got)
	}
	if net.Metrics() != ref.Metrics() || !slices.Equal(buf.Events(), refBuf.Events()) {
		t.Errorf("grown ring diverged from the fixed one:\n  grown %v\n  fixed %v", net.Metrics(), ref.Metrics())
	}
}

// spineModel is the specification the spine is checked against: one binary
// heap. Under the classic contract keys are handed out in increasing order and
// dispatch order is (t, key), nothing else. Under the shard contract keys are
// canonical, not increasing, and the order at one instant is "what was
// scheduled before the clock got there, by key; then what the instant itself
// creates, in creation order" — late marks the second group, ord its order.
type spineModel struct {
	keyed bool
	now   core.Time
	ord   uint64
	evs   []modelEv
}

type modelEv struct {
	t    core.Time
	key  uint64
	late bool
	ord  uint64
}

func (m *spineModel) Len() int      { return len(m.evs) }
func (m *spineModel) Swap(i, j int) { m.evs[i], m.evs[j] = m.evs[j], m.evs[i] }
func (m *spineModel) Push(x any)    { m.evs = append(m.evs, x.(modelEv)) }
func (m *spineModel) Pop() any {
	e := m.evs[len(m.evs)-1]
	m.evs = m.evs[:len(m.evs)-1]
	return e
}

func (m *spineModel) Less(i, j int) bool {
	a, b := m.evs[i], m.evs[j]
	switch {
	case a.t != b.t:
		return a.t < b.t
	case m.keyed && a.late != b.late:
		return b.late
	case m.keyed && a.late:
		return a.ord < b.ord
	}
	return a.key < b.key
}

func (m *spineModel) schedule(t core.Time, key uint64) {
	m.ord++
	heap.Push(m, modelEv{t: max(t, m.now), key: key, late: t <= m.now, ord: m.ord})
}

// next pops the minimum if it is due by the deadline. With nothing pending
// the clock stays; with nothing due it stops at the deadline.
func (m *spineModel) next(deadline core.Time) (modelEv, bool) {
	if len(m.evs) == 0 {
		return modelEv{}, false
	}
	if m.evs[0].t > deadline {
		m.now = deadline
		return modelEv{}, false
	}
	e := heap.Pop(m).(modelEv)
	m.now = e.t
	return e, true
}

// spineDriver runs one operation string against a bare spine and the model.
type spineDriver struct {
	t      *testing.T
	sp     spine
	m      spineModel
	seq    uint64 // classic keys; event identities under both contracts
	ctr    [len(spineOrigins)]uint64
	popped int64
	// What the string happened to exercise.
	cuts, overflows, growths, atCap int
}

func newSpineDriver(t *testing.T, keyed bool) *spineDriver {
	d := &spineDriver{t: t}
	d.sp.keyed, d.m.keyed = keyed, keyed
	d.sp.initRing(minRingWindow)
	return d
}

// spineOrigins are the origin fields keyed events are drawn from: the script
// field 0 and nodes whose fields need one, two and three counting passes.
var spineOrigins = [...]uint64{0, 1, 2, 200, 256, 1 << 16, 1<<16 + 5}

// key is the next event's key: the push sequence, or — keyed — the key
// nextKey would give the o-th origin's next event: origin field above, that
// origin's counter below, so each origin's keys ascend in push order, and
// only there.
func (d *spineDriver) key(o int) uint64 {
	d.seq++
	if !d.sp.keyed {
		return d.seq
	}
	d.ctr[o]++
	return spineOrigins[o]<<originShift | d.ctr[o]
}

// schedule adds one event from origin o at now+dt to both; barrier models a
// hand-off from another shard, which uses place and writes the whole entry
// itself.
func (d *spineDriver) schedule(dt core.Time, o int, barrier bool) {
	t, key := d.sp.now+dt, d.key(o)
	span := d.sp.span
	var e *eventRec
	if barrier && dt > 0 {
		e = d.sp.place(t, key)
		e.seq = key
	} else {
		e = d.sp.schedule(t, key)
	}
	if d.sp.span != span {
		d.growths++
	}
	e.set(evHop, 1, int64(d.seq), 0, 1, 0, 0)
	e.carry(key, anr.Local(), anr.Local())
	d.m.schedule(t, key)
}

// next takes one event from both under the deadline, compares, and lets the
// "dispatch" schedule spawn more events before the entry is retired.
func (d *spineDriver) next(deadline core.Time, spawn byte) bool {
	want, ok := d.m.next(deadline)
	ev := d.sp.next(deadline)
	if (ev != nil) != ok || d.sp.now != d.m.now {
		d.t.Fatalf("next(%d): spine returned %v at clock %d; model has an event: %v, clock %d", deadline, ev, d.sp.now, ok, d.m.now)
	}
	if !ok {
		return false
	}
	if d.sp.now != want.t || ev.seq != want.key || ev.payload != want.key {
		d.t.Fatalf("pop %d: spine dispatched (t=%d key=%d payload=%v), model (t=%d key=%d)",
			d.popped, d.sp.now, ev.seq, ev.payload, want.t, want.key)
	}
	d.popped++
	for o := int(ev.seq) % len(spineOrigins); spawn&3 != 0; spawn >>= 2 {
		d.schedule([]core.Time{0, 0, 1, d.sp.span}[spawn&3], o, false)
	}
	d.sp.done()
	return true
}

func (d *spineDriver) pending() int {
	return d.sp.lane.n + d.sp.stage.len() + d.sp.pending + d.sp.heap.len()
}

// run interprets ops two bytes at a time: operation, argument.
func (d *spineDriver) run(ops []byte) {
	sp := &d.sp
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%10, core.Time(ops[i+1])
		o := int(arg>>4) % len(spineOrigins)
		switch op {
		case 0: // same instant: the lane
			d.schedule(0, o, false)
		case 1: // inside the window: the ring
			d.schedule(1+arg%(sp.span-1), o, arg&1 != 0)
		case 2: // exactly the span: the first instant the ring cannot take, so it doubles (below the cap)
			d.schedule(sp.span, o, false)
		case 3: // past the span — doubling the ring when arg is small — and far past it, into the heap
			d.schedule(sp.span+1+arg*arg, o, arg&1 != 0)
		case 4: // the past: clamped to now
			d.schedule(-1-arg, o, false)
		case 5: // a burst on one instant from interleaved origins: a slot of several chunks
			for n := 2*laneChunk + 1 + int(arg)%laneChunk; n > 0; n-- {
				d.schedule(1+arg%7, (o+n)%len(spineOrigins), false)
			}
		case 6: // dispatch a few events, whatever their time
			for n := 1 + arg%8; n > 0 && d.next(noDeadline, byte(arg)); n-- {
			}
		case 7: // run to a deadline that may cut the ring mid-span
			deadline := sp.now + arg%sp.span
			for spawn := byte(arg); d.next(deadline, spawn); spawn = 0 {
			}
			if sp.pending > 0 {
				d.cuts++
			}
		case 8: // run to the clock itself, the earliest deadline RunUntil takes: the lane alone
			for spawn := byte(arg); d.next(sp.now, spawn); spawn = 0 {
			}
			if sp.pending > 0 {
				d.cuts++
			}
		case 9: // a wider delay envelope
			sp.grow(roundRingWindow(2 * len(sp.ring)))
			if len(sp.ring) == maxRingWindow {
				d.atCap++
			}
		}
		if got, want := d.pending(), len(d.m.evs); got != want {
			d.t.Fatalf("after op %d (%d, %d): spine holds %d events, model %d", i/2, op, arg, got, want)
		}
		if got, want := sp.nextTime(), core.Time(-1); len(d.m.evs) > 0 {
			if want = d.m.evs[0].t; got != want {
				d.t.Fatalf("after op %d: nextTime() = %d, model's minimum is at %d", i/2, got, want)
			}
		}
	}
	for d.next(noDeadline, 0) {
	}
	d.overflows = int(sp.stats.RingOverflows)
	// Drained: every count back to zero, every chunk back in the pool, and
	// nothing the events pinned still reachable from the spine.
	if d.pending() != 0 || sp.nextTime() != -1 || sp.stats.Events != d.popped ||
		sp.stats.LanePushes+sp.stats.RingPushes+sp.stats.HeapPushes != int64(d.seq) {
		d.t.Fatalf("drained spine: %d pending, nextTime %d, stats %+v for %d pushes and %d pops",
			d.pending(), sp.nextTime(), sp.stats, d.seq, d.popped)
	}
	if got := pooled(d.t, &sp.pool); got != sp.pool.made {
		d.t.Fatalf("%d chunks on the free list after the drain, %d ever made", got, sp.pool.made)
	}
	pinned := []eventRec{sp.popped}
	for _, e := range sp.heap.evs[:cap(sp.heap.evs)] {
		pinned = append(pinned, e.ev)
	}
	for _, r := range sp.stage.buf {
		if r.ev != nil {
			pinned = append(pinned, *r.ev)
		}
	}
	for _, e := range pinned {
		if e.refs != (refs{}) {
			d.t.Fatalf("drained spine still pins %+v", e)
		}
	}
}

// spinePreamble walks the clock off zero, fills one slot with three chunks
// and the lane with two events, runs to a deadline on the clock (the lane
// drains, the slot stays) and grows the ring — so every operation string
// starts from a wrapped, regrown spine.
var spinePreamble = []byte{1, 60, 6, 0, 5, 3, 0, 0, 0, 0, 8, 4, 9, 0, 3, 9, 7, 30}

// TestSpineMatchesHeapModel is the proof of the spine's order argument (see
// the spine type): random operation strings — schedules at every distance
// from now, bursts, partial drains, deadlines that cut the ring mid-span or
// sit on the clock itself, on-demand doubling for a push just past the span,
// envelope growth from 64 to the 8192 cap — must dispatch in exactly the
// order one binary heap does, under both contracts, and leave nothing behind.
func TestSpineMatchesHeapModel(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		var cuts, overflows, growths, atCap int
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 1200)
			rng.Read(ops)
			d := newSpineDriver(t, keyed)
			d.run(append(append([]byte(nil), spinePreamble...), ops...))
			cuts, overflows = cuts+d.cuts, overflows+d.overflows
			growths, atCap = growths+d.growths, atCap+d.atCap
		}
		if cuts == 0 || overflows == 0 || growths == 0 || atCap == 0 {
			t.Errorf("keyed=%v: the strings covered %d forward cuts over a pending ring, %d heap overflows, %d on-demand growths, %d growths to the cap; want all > 0",
				keyed, cuts, overflows, growths, atCap)
		}
	}
}

// FuzzSpine lets the fuzzer write the operation string: the scheduler at its
// own boundary, a bare spine against a container/heap model. Interesting
// inputs are byte strings, so CI (scripts/ci-smokes.sh) caps the time the
// engine spends minimizing each one with -fuzzminimizetime 1s.
func FuzzSpine(f *testing.F) {
	f.Add(false, spinePreamble)
	f.Add(true, spinePreamble)
	f.Add(true, []byte{5, 2, 1, 3, 7, 9, 6, 255, 8, 0, 3, 200, 9, 0, 9, 0, 7, 63, 4, 4, 6, 77})
	f.Fuzz(func(t *testing.T, keyed bool, ops []byte) {
		if len(ops) > 1024 { // a burst leaves up to 48 events pending: keep strings small
			ops = ops[:1024]
		}
		newSpineDriver(t, keyed).run(ops)
	})
}
