package load

import (
	"fmt"
	"math"
	"math/rand"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// Call lifecycle states. A record is stInFlight from admission until its
// setup packet's terminal delivery; stDelivered while the call holds its
// resources; the zombie states keep timed-out and completed records parked
// (never reused) whenever reuse would be unsafe or a late packet may still
// reference them.
const (
	stFree      uint8 = iota
	stInFlight        // setup injected, not yet delivered
	stDelivered       // delivered on time, holding resources until end
	stDropped         // admission timeout fired while in flight (zombie)
	stLate            // delivered after its timeout drop (zombie)
	stDone            // completed, but unfreeable under dup faults (zombie)
)

// callRec is one call's lifecycle record. Records live in pooled chunks and
// are recycled through a free list, so steady-state generation allocates
// nothing and memory is O(1) per in-flight call. gen invalidates stale
// call-timer entries from a record's previous lives.
type callRec struct {
	arrival core.Time
	sent    core.Time
	deliver core.Time
	end     core.Time
	hold    core.Time
	pair    int32
	idx     int32 // own pool index
	next    int32 // free-list link
	gen     uint32
	state   uint8
}

const recChunk = 1024

// recPool hands out callRec records from contiguous chunks via a free list.
type recPool struct {
	chunks  [][]callRec
	free    int32 // head of free list, -1 when empty
	live    int
	maxLive int
}

func newRecPool() *recPool { return &recPool{free: -1} }

func (p *recPool) get(idx int32) *callRec {
	return &p.chunks[idx>>10][idx&(recChunk-1)]
}

func (p *recPool) alloc() *callRec {
	if p.free < 0 {
		base := int32(len(p.chunks)) * recChunk
		chunk := make([]callRec, recChunk)
		for i := range chunk {
			chunk[i].idx = base + int32(i)
			chunk[i].next = base + int32(i) + 1
		}
		chunk[recChunk-1].next = -1
		p.chunks = append(p.chunks, chunk)
		p.free = base
	}
	r := p.get(p.free)
	p.free = r.next
	p.live++
	if p.live > p.maxLive {
		p.maxLive = p.live
	}
	return r
}

func (p *recPool) release(r *callRec) {
	r.gen++ // invalidate any timer entries still pointing here
	r.state = stFree
	r.next = p.free
	p.free = r.idx
	p.live--
}

// Config describes one open-loop run. Only Rate and Calls are required;
// every other knob has a neutral default. All randomness derives from Seed.
type Config struct {
	Seed int64
	// Calls is how many arrivals to generate.
	Calls int
	// Rate is the long-run mean arrival rate in calls per tick.
	Rate float64
	// BurstFactor > 1 switches the arrival process from Poisson to on-off
	// mmpp: on-phases arrive BurstFactor times denser than Rate, separated
	// by silent phases, preserving the long-run mean.
	BurstFactor float64
	// Holding is the mean call-holding time in ticks, exponentially
	// distributed per call (default 256, at most 2^40). A delivered call
	// occupies its endpoints for its holding time before completing.
	Holding core.Time
	// Zipf is the skew exponent of the endpoint popularity table
	// (0 = uniform).
	Zipf float64
	// Pairs bounds the popularity table size (0 = defaultPairs rule).
	Pairs int
	// NCUCap > 0 caps concurrent calls per endpoint: an arrival finding
	// either endpoint full is Blocked (the classic Erlang loss knob), and
	// admitted calls carry an admission timer — in flight past
	// 4*Holding + 256 ticks means Dropped.
	NCUCap int
	// Capacity enables the runtime's finite-resource model (finite NCU
	// service queues, per-link token buckets). Zero = off.
	Capacity core.Capacity
	// Faults layers the lossy-link model under the calls.
	Faults core.MsgFaults
}

// burstOn is the mean on-phase length of the bursty arrival process, in ticks.
const burstOn = 512

// ConfigError reports a Config field no run can honour, so sweep and probe
// drivers can tell a bad scenario from a simulation failure with errors.As.
type ConfigError struct {
	Field  string
	Value  float64
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("load: %s = %g: %s", e.Field, e.Value, e.Reason)
}

// validate rejects what the samplers would turn into a garbage ledger; NaN and
// infinities compare false against every bound, so they are tested by name.
func (cfg *Config) validate() error {
	for _, f := range []struct {
		field string
		v     float64
	}{{"Rate", cfg.Rate}, {"Zipf", cfg.Zipf}, {"BurstFactor", cfg.BurstFactor}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return &ConfigError{f.field, f.v, "must be finite"}
		}
	}
	if cfg.Rate <= 0 {
		return &ConfigError{"Rate", cfg.Rate, "must be > 0"}
	}
	if cfg.Calls < 0 {
		return &ConfigError{"Calls", float64(cfg.Calls), "must be >= 0"}
	}
	if cfg.Holding > maxHolding {
		return &ConfigError{"Holding", float64(cfg.Holding), "must be <= 2^40"}
	}
	return nil
}

// maxHolding bounds Config.Holding so that no timer time overflows core.Time:
// the admission timeout 4*Holding + 256 and a holding draw (ExpFloat64 < 45,
// so below 45*Holding < 2^46) stay far below 2^63 added to any virtual time
// a run reaches. A wrapped timeout would fire every admission timer at once.
const maxHolding = 1 << 40

func (cfg *Config) holding() core.Time {
	if cfg.Holding <= 0 {
		return 256
	}
	return cfg.Holding
}

// timeout is the in-flight deadline of an admitted call when NCUCap > 0.
func (cfg *Config) timeout() core.Time { return 4*cfg.holding() + 256 }

// Stats is the outcome ledger and latency record of one open-loop run.
// Conservation holds by construction: Generated == Delivered + Blocked +
// Dropped (Late, Dups and Garbled are informational sub-counts of packets,
// not calls).
type Stats struct {
	// Generated counts arrivals produced by the sampler.
	Generated int64
	// Delivered counts calls whose setup reached its destination in time.
	Delivered int64
	// Blocked counts arrivals rejected at admission (endpoint at NCUCap).
	Blocked int64
	// Dropped counts admitted calls that never (or too late) completed
	// setup: lost to capacity drops, faults, or the admission timeout.
	Dropped int64
	// Late counts setups that arrived after their call was already dropped.
	Late int64
	// Dups counts redundant deliveries of already-settled calls
	// (fault-injected duplicates).
	Dups int64
	// Garbled counts deliveries whose payload was corrupted in flight.
	Garbled int64
	// Setup records arrival-to-delivery latency; Transit records
	// send-to-delivery (network-only) latency. Ticks.
	Setup, Transit Hist
	// MaxInFlight is the peak number of simultaneously live call records —
	// with PoolChunks (chunks of recChunk records ever allocated) it
	// evidences O(1) memory per in-flight call.
	MaxInFlight int
	PoolChunks  int
	// Finish is the virtual time the run drained.
	Finish core.Time
	// Net and Sched are the runtime's own measures for the run.
	Net   core.Metrics
	Sched sim.SchedStats
}

// Merge accumulates other into s (Finish by max).
func (s *Stats) Merge(other *Stats) {
	s.Generated += other.Generated
	s.Delivered += other.Delivered
	s.Blocked += other.Blocked
	s.Dropped += other.Dropped
	s.Late += other.Late
	s.Dups += other.Dups
	s.Garbled += other.Garbled
	s.Setup.merge(&other.Setup)
	s.Transit.merge(&other.Transit)
	if other.MaxInFlight > s.MaxInFlight {
		s.MaxInFlight = other.MaxInFlight
	}
	s.PoolChunks += other.PoolChunks
	if other.Finish > s.Finish {
		s.Finish = other.Finish
	}
	s.Net.Add(other.Net)
}

// engine drives one run: sampler -> admission -> injection -> call timers.
type engine struct {
	cfg     Config
	net     *sim.Network
	pairs   *PairTable
	wheel   *wheel
	pool    *recPool
	arr     arrivals
	pairRng *rand.Rand
	holdRng *rand.Rand
	active  []int32 // per-node concurrent calls, nil unless NCUCap > 0
	timeout core.Time
	reuse   bool // free records on completion (unsafe under dup faults)
	stats   Stats
}

// olProto is the call-plane protocol: the source's injected activation
// sends the precomputed route; the destination's terminal delivery settles
// the call. One stateless instance serves every node.
type olProto struct{ e *engine }

func (p *olProto) Init(core.Env)                 {}
func (p *olProto) LinkEvent(core.Env, core.Port) {}

func (p *olProto) Deliver(env core.Env, pkt core.Packet) {
	rec, ok := pkt.Payload.(*callRec)
	if !ok {
		p.e.stats.Garbled++
		return
	}
	if pkt.Injected {
		rec.sent = env.Now()
		// If the fabric drops the packet the record stays in flight and is
		// accounted Dropped at drain. A send the runtime refuses (a caller's
		// sim.WithDmax shorter than the route) fails the run instead.
		pe := &p.e.pairs.entries[rec.pair]
		if err := env.Send(pe.hdr, rec); err != nil {
			env.Fail(fmt.Errorf("load: call %d->%d: %w", pe.src, pe.dst, err))
		}
		return
	}
	p.e.delivered(rec, env.Now())
}

// Run executes one open-loop run over g. Extra sim options are appended
// after the engine's own (so tests can attach trace sinks or shards).
func Run(g *graph.Graph, cfg Config, opts ...sim.Option) (*Stats, error) {
	return run(g, cfg, nil, opts...)
}

// pairTable builds the endpoint table Run samples from. It depends on g and
// on cfg's Pairs, Zipf and Seed only (pm is a pure function of g) and is
// read-only once built.
func (cfg *Config) pairTable(g *graph.Graph, pm *core.PortMap) (*PairTable, error) {
	return NewPairTable(g, pm, cfg.Pairs, cfg.Zipf, cfg.Seed^0x9a1f)
}

// run is Run over a prebuilt cfg.pairTable; nil builds it here.
func run(g *graph.Graph, cfg Config, pairs *PairTable, opts ...sim.Option) (*Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &engine{cfg: cfg, timeout: cfg.timeout(), reuse: cfg.Faults.Dup == 0}
	simOpts := []sim.Option{
		sim.WithDelays(0, 1), // the paper's regime: free hardware, unit software delay
		sim.WithSeed(cfg.Seed),
		sim.WithEventBudget(max(64*int64(cfg.Calls), 10_000_000)), // the runaway guard
	}
	if cfg.Capacity.Enabled() {
		simOpts = append(simOpts, sim.WithCapacity(cfg.Capacity))
	}
	if cfg.Faults.Enabled() {
		simOpts = append(simOpts, sim.WithMsgFaults(cfg.Faults))
	}
	simOpts = append(simOpts, opts...)
	proto := &olProto{e}
	e.net = sim.New(g, func(core.NodeID) core.Protocol { return proto }, simOpts...)
	if pairs == nil {
		var err error
		if pairs, err = cfg.pairTable(g, e.net.PortMap()); err != nil {
			return nil, err
		}
	}
	e.pairs = pairs
	// Dedicated streams: arrival timing, endpoint choice, holding times.
	// Each is a pure function of the seed, so no consumer can perturb
	// another's draws.
	if cfg.BurstFactor > 1 {
		e.arr = newBurst(cfg.Rate, cfg.BurstFactor, burstOn, cfg.Seed^0x41a7)
	} else {
		e.arr = NewPoisson(cfg.Rate, cfg.Seed^0x41a7)
	}
	e.pairRng = rand.New(rand.NewSource(cfg.Seed ^ 0x77e1))
	e.holdRng = rand.New(rand.NewSource(cfg.Seed ^ 0x3c6d))
	e.wheel = newWheel(0)
	e.pool = newRecPool()
	if cfg.NCUCap > 0 {
		e.active = make([]int32, g.N())
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	e.stats.MaxInFlight = e.pool.maxLive
	e.stats.PoolChunks = len(e.pool.chunks)
	e.stats.Finish = e.net.Now()
	e.stats.Net = e.net.Metrics()
	e.stats.Sched = e.net.SchedStats()
	return &e.stats, nil
}

// run is the engine's one loop. Each pass either expires the next timer
// instant, once the runtime has reached it, or injects a batch of arrivals
// that ends before it. With an engine-level NCUCap the batch is 1 (strict
// admission: every arrival sees fully settled resource counts); without one,
// batching only defers completion bookkeeping — never admission decisions —
// so it trades nothing for the amortization. With no arrivals left the same
// passes drain: timers and runtime stay in lockstep (a timeout must still
// beat a slower delivery); once no timer is pending the runtime runs dry, and
// the completions its last deliveries scheduled expire without moving the
// clock.
func (e *engine) run() error {
	batch := 256
	if e.cfg.NCUCap > 0 {
		batch = 1
	}
	nextA := e.arr.Next()
	settled := false // the runtime has run dry
	for {
		more := e.stats.Generated < int64(e.cfg.Calls)
		switch tW := e.wheel.next(); {
		case tW >= 0 && (tW <= nextA || !more):
			if !settled && tW > e.net.Now() {
				if _, err := e.net.RunUntil(tW); err != nil {
					return err
				}
			}
			e.wheel.popUntil(tW, e.expire)
		case more:
			last := nextA
			for n := 0; n < batch && e.stats.Generated < int64(e.cfg.Calls) && (tW < 0 || nextA < tW); n++ {
				last = nextA
				e.arrive(nextA)
				nextA = e.arr.Next()
			}
			if _, err := e.net.RunUntil(last); err != nil {
				return err
			}
		case !settled:
			if _, err := e.net.Run(); err != nil {
				return err
			}
			settled = true
		default:
			// Residual in-flight records are setups the fabric lost and no
			// timer claimed (timerless mode): account them dropped.
			for ci := range e.pool.chunks {
				for i := range e.pool.chunks[ci] {
					if r := &e.pool.chunks[ci][i]; r.state == stInFlight {
						e.stats.Dropped++
						e.releaseEndpoints(r)
					}
				}
			}
			return nil
		}
	}
}

// arrive admits (or blocks) one arrival at time t and injects its setup.
func (e *engine) arrive(t core.Time) {
	e.stats.Generated++
	pi := e.pairs.Sample(e.pairRng)
	hold := 1 + core.Time(e.holdRng.ExpFloat64()*float64(e.cfg.holding()))
	pe := &e.pairs.entries[pi]
	if e.active != nil {
		if int(e.active[pe.src]) >= e.cfg.NCUCap || int(e.active[pe.dst]) >= e.cfg.NCUCap {
			e.stats.Blocked++
			return
		}
		e.active[pe.src]++
		e.active[pe.dst]++
	}
	r := e.pool.alloc()
	r.arrival, r.pair, r.hold, r.state = t, int32(pi), hold, stInFlight
	e.net.Inject(t, pe.src, r)
	if e.active != nil {
		e.wheel.add(t+e.timeout, r.idx, r.gen)
	}
}

// delivered settles a terminal delivery at the destination.
func (e *engine) delivered(r *callRec, now core.Time) {
	switch r.state {
	case stInFlight:
		r.state = stDelivered
		r.deliver = now
		r.end = now + r.hold
		e.stats.Delivered++
		e.stats.Setup.Record(int64(now - r.arrival))
		e.stats.Transit.Record(int64(now - r.sent))
		e.wheel.add(r.end, r.idx, r.gen)
	case stDropped:
		// The admission timer already declared this call dead.
		e.stats.Late++
		r.state = stLate
	default:
		// stDelivered / stLate / stDone / a recycled record: a
		// fault-injected duplicate of a settled call.
		e.stats.Dups++
	}
}

// expire handles one call-timer expiry: a call completion or an
// admission timeout, disambiguated by state and deadline. Stale entries
// (generation mismatch, or an admission timer whose call was delivered)
// are ignored — lazy cancellation.
func (e *engine) expire(w wheelEntry) {
	r := e.pool.get(w.idx)
	if r.gen != w.gen {
		return
	}
	switch {
	case r.state == stDelivered && w.t == r.end:
		e.releaseEndpoints(r)
		if e.reuse {
			e.pool.release(r)
		} else {
			r.state = stDone
		}
	case r.state == stInFlight:
		e.stats.Dropped++
		e.releaseEndpoints(r)
		r.state = stDropped
	}
}

func (e *engine) releaseEndpoints(r *callRec) {
	if e.active == nil {
		return
	}
	pe := &e.pairs.entries[r.pair]
	e.active[pe.src]--
	e.active[pe.dst]--
}
