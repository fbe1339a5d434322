package faults

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/calls"
	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/load"
	"fastnet/internal/reliable"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// Config parameterizes a soak run. The zero value is not useful; set at
// least Epochs and one fault source. Every random decision — schedules,
// call placement, election starters — derives from Seed, so a run is
// reproducible bit for bit on the discrete-event runtime.
type Config struct {
	Seed    int64
	Epochs  int
	Runtime string        // "des" (default) or "gosim"
	Mode    topology.Mode // topology maintenance protocol (default branching)

	Flaps          int // link flaps per epoch
	FlapLen        int // steps a flapped link stays down (default 1)
	PartitionEvery int // epochs between correlated cut faults (0 = off)
	PartitionHeal  int // epochs until a cut heals (default 1)
	Crashes        int // node crashes per epoch
	Downtime       int // epochs a crashed node stays down (default 1)
	Adversary      bool
	LeaderCrash    float64 // per-epoch probability of crashing the leader

	// Lossy-link profile (core.MsgFaults probabilities). When any of these
	// is nonzero the soak runs its message-fault phases: convergence (I1),
	// the reliable-delivery ledger (I6) and the down-direction link probes
	// (I4) happen on the lossy fabric; exact-state checks (call state,
	// up-direction probes) run after healing it, since arbitrary loss can
	// legitimately defeat the liveness they assert.
	Loss      float64 // per-traversal drop probability
	Dup       float64 // per-traversal duplication probability
	Corrupt   float64 // per-traversal corruption probability
	Jitter    float64 // per-traversal extra-delay probability
	JitterMax int     // max extra delay in time units (default 4)
	// Reorder is the per-traversal FIFO-violation probability. Besides
	// joining the fabric profile, a nonzero value arms invariant I7: each
	// epoch the largest live component re-runs the election under random
	// delays plus a reorder-only profile, and must still elect a single
	// leader owning the whole component.
	Reorder       float64
	ReorderWindow int // max hold-back delay in time units (default 8)

	// Gray-failure profile. Slow joins the fabric as the per-traversal
	// slowdown probability (core.MsgFaults.Slowdown); Stall injects seeded
	// NCU-stall windows into the fabric each epoch. A nonzero value in
	// either arms invariant I8: an adaptive (phi-accrual) failure detector
	// watching a live-but-slowed/stalled leader must raise zero suspicions,
	// and the election must still complete within the I7 bound with
	// slowdown in the profile.
	Slow       float64 // per-traversal gray-link slowdown probability
	SlowFactor float64 // hardware-delay multiplier of a slowed hop (default 4)
	SlowMax    int     // max additive inflation in time units (default 8)
	Stall      int     // NCU stalls injected per epoch
	StallTicks int     // stall window length (default 8)

	// BurstEvery > 0 scales the profile by BurstScale every BurstEvery-th
	// epoch (loss comes in storms, not as a stationary rate).
	BurstEvery int
	BurstScale float64 // default 2

	// Reliable is the number of end-to-end reliable messages sent per epoch
	// between random live pairs while the fabric is lossy; invariant I6
	// checks the delivery ledger (exactly once each, nothing phantom).
	Reliable int

	Calls      int  // calls set up (and failure-checked) per epoch
	NoElection bool // skip the per-epoch re-election invariant

	// Open-loop load plane (DES runtime only). Rate > 0 switches the soak
	// from the churn loop into its open-loop mode: each epoch runs one
	// load-engine sweep of Calls arrivals at Rate*(epoch+1) calls per tick
	// (a rising-pressure rate sweep), checking invariant I9 — the call
	// ledger settles every generated call exactly once, and nothing is
	// blocked or dropped unless an overload source (a capacity limit or a
	// fault profile) is declared.
	Rate    float64 // base arrival rate in calls per tick (0 = classic soak)
	Holding int     // mean call-holding time in ticks (default 256)
	ZipfS   float64 // endpoint-popularity skew exponent (0 = uniform)
	NCUCap  int     // finite NCU service queue (Capacity.NCUQueue; 0 = unlimited)
	LinkCap float64 // per-link token refill rate (Capacity.LinkRate; 0 = unlimited)

	// Shards > 0 runs the DES fabric on the sharded space-parallel scheduler
	// with that many event cores (see sim.WithShards). Because shard mode
	// needs a nonzero lookahead, the fabric's hardware delay becomes 1 instead
	// of the classic soak's 0 — a sharded soak is therefore a different (but
	// per-shard-count deterministic) schedule than the Shards == 0 soak, not a
	// reparallelization of it. DES runtime only; ignored under gosim.
	Shards int

	MaxRounds int           // convergence-round cap (default n+8)
	Timeout   time.Duration // per-quiescence bound, goroutine runtime only
	Verbose   io.Writer     // optional per-epoch progress lines
}

// Repro renders the fastnet soak invocation that reproduces this config on
// topology topo/n; the soak driver prints it when an invariant fails.
func (cfg Config) Repro(topo string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fastnet soak -runtime %s -topo %s -n %d -seed %d -epochs %d -mode %s",
		cfg.runtime(), topo, n, cfg.Seed, cfg.Epochs, cfg.Mode)
	fmt.Fprintf(&b, " -flaps %d -flaplen %d -partition-every %d -partition-heal %d -crashes %d -downtime %d -calls %d -leader-crash %g",
		cfg.Flaps, max(1, cfg.FlapLen), cfg.PartitionEvery, max(1, cfg.PartitionHeal),
		cfg.Crashes, max(1, cfg.Downtime), cfg.Calls, cfg.LeaderCrash)
	if cfg.lossy() {
		fmt.Fprintf(&b, " -loss %g -dup %g -corrupt %g -jitter %g -jittermax %d -reliable %d",
			cfg.Loss, cfg.Dup, cfg.Corrupt, cfg.Jitter, cfg.jitterMax(), cfg.Reliable)
		if cfg.Reorder > 0 {
			fmt.Fprintf(&b, " -reorder %g -reorder-window %d", cfg.Reorder, cfg.reorderWindow())
		}
		if cfg.Slow > 0 {
			fmt.Fprintf(&b, " -slow %g -slow-factor %g -slow-max %d", cfg.Slow, cfg.slowFactor(), cfg.slowMax())
		}
		if cfg.BurstEvery > 0 {
			fmt.Fprintf(&b, " -burst-every %d -burst-scale %g", cfg.BurstEvery, cfg.burstScale())
		}
	}
	if cfg.Stall > 0 {
		fmt.Fprintf(&b, " -stall %d -stall-ticks %d", cfg.Stall, cfg.stallTicks())
	}
	if cfg.Rate > 0 {
		fmt.Fprintf(&b, " -rate %g -holding %d -zipf %g -ncu-cap %d -link-cap %g",
			cfg.Rate, cfg.olHolding(), cfg.ZipfS, cfg.NCUCap, cfg.LinkCap)
	}
	if cfg.MaxRounds > 0 {
		fmt.Fprintf(&b, " -max-rounds %d", cfg.MaxRounds)
	}
	if cfg.Shards > 0 {
		fmt.Fprintf(&b, " -shards %d", cfg.Shards)
	}
	if cfg.Adversary {
		b.WriteString(" -adversary")
	}
	if cfg.NoElection {
		b.WriteString(" -no-election")
	}
	return b.String()
}

// msgFaults renders the configured base lossy-link profile. Gray fields are
// populated only when Slow is set, so gray-free configs build a profile
// byte-identical to what they built before the slowdown dimension existed.
func (cfg Config) msgFaults() core.MsgFaults {
	f := core.MsgFaults{
		Drop: cfg.Loss, Dup: cfg.Dup, Corrupt: cfg.Corrupt,
		Jitter: cfg.Jitter, JitterMax: core.Time(cfg.jitterMax()),
		Reorder: cfg.Reorder, ReorderWindow: core.Time(cfg.reorderWindow()),
	}
	if cfg.Slow > 0 {
		f.Slowdown = cfg.Slow
		f.SlowFactor = cfg.slowFactor()
		f.SlowMax = core.Time(cfg.slowMax())
	}
	return f
}

// lossy reports whether any message-fault phase is configured.
func (cfg Config) lossy() bool { return cfg.msgFaults().Enabled() || cfg.Reliable > 0 }

func (cfg Config) jitterMax() int {
	if cfg.JitterMax <= 0 {
		return 4
	}
	return cfg.JitterMax
}

func (cfg Config) reorderWindow() int {
	if cfg.ReorderWindow <= 0 {
		return 8
	}
	return cfg.ReorderWindow
}

func (cfg Config) slowFactor() float64 {
	if cfg.SlowFactor <= 0 {
		return 4
	}
	return cfg.SlowFactor
}

func (cfg Config) slowMax() int {
	if cfg.SlowMax <= 0 {
		return 8
	}
	return cfg.SlowMax
}

func (cfg Config) olHolding() int {
	if cfg.Holding <= 0 {
		return 256
	}
	return cfg.Holding
}

func (cfg Config) stallTicks() int {
	if cfg.StallTicks <= 0 {
		return 8
	}
	return cfg.StallTicks
}

// gray reports whether any gray-failure dimension is configured (arms I8).
func (cfg Config) gray() bool { return cfg.Slow > 0 || cfg.Stall > 0 }

func (cfg Config) burstScale() float64 {
	if cfg.BurstScale <= 0 {
		return 2
	}
	return cfg.BurstScale
}

// schedule builds the per-epoch profile schedule from the config.
func (cfg Config) schedule() MsgFaultSchedule {
	if cfg.BurstEvery > 0 {
		return BurstyFaults{Base: cfg.msgFaults(), Every: cfg.BurstEvery, Scale: cfg.burstScale()}
	}
	return ConstantFaults{P: cfg.msgFaults()}
}

func (cfg Config) runtime() string {
	if cfg.Runtime == "" {
		return "des"
	}
	return cfg.Runtime
}

// Result aggregates a soak run. All counters are deterministic functions of
// (graph, Config) on the discrete-event runtime, so Line is byte-identical
// across reruns of the same seed.
type Result struct {
	Epochs      int // churn epochs completed with all invariants held
	Violations  []string
	Metrics     core.Metrics // the soak network (elections run separately)
	FaultFlips  int          // concrete link flips applied
	ConvRounds  int          // broadcast rounds spent re-converging (sum)
	ConvMax     int          // worst single-epoch round count
	Elections   int
	ReelectTime core.Time // re-election latency, summed (DES virtual time)
	ReelectMax  core.Time
	ReelectMsgs int64 // algorithm messages across all elections
	CallsSetUp  int
	CallsFailed int // calls torn down by injected failures
	CallsTorn   int // surviving calls torn down explicitly
	ProbesSent  int
	ProbesDown  int // probes over down links (must all be blocked)

	// Reliable-delivery ledger totals (I6); all zero unless Config.Reliable
	// is set. RelSent counts distinct ledger tokens, RelRetrans the extra
	// frames the lossy fabric cost, RelDupes/RelBadSum the receiver-side
	// discards that kept delivery exactly-once.
	RelSent    int64
	RelRetrans int64
	RelDupes   int64
	RelBadSum  int64

	// Reordered-election totals (I7); all zero unless Config.Reorder is set.
	// ReorderRecoveries counts the election's graceful degradations (stale
	// trees survived by fallback routing or the flood transport).
	ReorderElections  int
	ReorderRecoveries int64

	// Gray-failure totals (I8); all zero unless Config.Slow or Config.Stall
	// is set. GraySuspects counts false suspicions raised by the adaptive
	// detector against a live-but-gray leader — any nonzero count is an I8
	// violation, so a passing run always reports suspects=0 (the counter
	// exists so a failing line shows how many detectors were fooled).
	GrayElections int
	GrayStalls    int
	GraySuspects  int

	// Open-loop totals (I9); untouched unless Config.Rate is set. OL merges
	// every epoch's engine run — ledger counters, latency recorders, runtime
	// metrics — and OLRuns counts the runs merged, gating the openloop block
	// of Line() so classic soak lines render exactly as before the load
	// plane existed.
	OL     load.Stats
	OLRuns int

	// Det snapshots the worst-case (highest-phi) adaptive detector observed
	// across the I8 scenarios, leader rewritten to the soak graph's node ID.
	// Measurement only, like Sched: not part of Line(), printed by soak -v.
	Det election.DetectorStats

	// Sched snapshots the discrete-event scheduler's observability counters
	// (zero on the goroutine runtime). Measurement only — deliberately not
	// part of Line(), whose byte-identity contract is over simulation
	// observables, not over how cheaply the scheduler produced them.
	Sched sim.SchedStats
}

// OK reports whether every epoch held every invariant.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Line renders the run on one line (the byte-identical repro check target).
// The reliable-ledger block only appears when the ledger ran, so fault-free
// soak lines render exactly as they did before the lossy-link model existed.
func (r *Result) Line() string {
	rel := ""
	if r.RelSent > 0 {
		rel = fmt.Sprintf(" reliable(sent=%d retx=%d dup=%d badsum=%d)",
			r.RelSent, r.RelRetrans, r.RelDupes, r.RelBadSum)
	}
	if r.ReorderElections > 0 {
		rel += fmt.Sprintf(" reorder(elections=%d recoveries=%d)",
			r.ReorderElections, r.ReorderRecoveries)
	}
	if r.GrayElections > 0 || r.GrayStalls > 0 {
		rel += fmt.Sprintf(" gray(elections=%d stalls=%d suspects=%d)",
			r.GrayElections, r.GrayStalls, r.GraySuspects)
	}
	if r.OLRuns > 0 {
		rel += fmt.Sprintf(" openloop(gen=%d del=%d blocked=%d dropped=%d p50=%d p99=%d p999=%d)",
			r.OL.Generated, r.OL.Delivered, r.OL.Blocked, r.OL.Dropped,
			r.OL.Setup.Quantile(0.5), r.OL.Setup.Quantile(0.99), r.OL.Setup.Quantile(0.999))
	}
	return fmt.Sprintf("epochs=%d violations=%d flips=%d conv(sum=%d,max=%d) elections=%d reelect(time=%d,max=%d,msgs=%d) calls(setup=%d,failed=%d,torn=%d) probes(sent=%d,down=%d)%s | %s",
		r.Epochs, len(r.Violations), r.FaultFlips, r.ConvRounds, r.ConvMax,
		r.Elections, r.ReelectTime, r.ReelectMax, r.ReelectMsgs,
		r.CallsSetUp, r.CallsFailed, r.CallsTorn, r.ProbesSent, r.ProbesDown,
		rel, r.Metrics)
}

// probeCmd is injected at one endpoint of an edge: send a probeEcho across
// exactly the given local link. Whether the echo arrives tells the soak
// driver whether the hardware honors the link's state.
type probeCmd struct {
	Link anr.ID
	ID   int64
}

// probeEcho is the probe's one-hop payload.
type probeEcho struct {
	ID int64
}

// probeBook records which probes echoed; shared by all nodes of a run.
type probeBook struct {
	mu   sync.Mutex
	echo map[int64]bool
}

func (b *probeBook) hit(id int64) {
	b.mu.Lock()
	b.echo[id] = true
	b.mu.Unlock()
}

func (b *probeBook) sawEcho(id int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.echo[id]
}

// relSend is injected at a sender: hand token to the reliable endpoint for
// delivery to dst over route.
type relSend struct {
	Dst   core.NodeID
	Route anr.Header
	Token uint64
}

// relBook is the driver-side delivery ledger for invariant I6: it records, for
// every ledger token, which nodes the reliable layer delivered it at (and how
// often). Shared by all nodes of a run.
type relBook struct {
	mu  sync.Mutex
	got map[uint64][]core.NodeID
}

func (b *relBook) deliver(at core.NodeID, token uint64) {
	b.mu.Lock()
	b.got[token] = append(b.got[token], at)
	b.mu.Unlock()
}

func (b *relBook) deliveries(token uint64) []core.NodeID {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]core.NodeID(nil), b.got[token]...)
}

func (b *relBook) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.got)
}

// soakNode multiplexes one NCU between the topology maintainer, the call
// manager and the reliable-delivery endpoint (all ignore each other's payload
// types), and answers link probes.
type soakNode struct {
	topo topology.Maintainer
	mgr  *calls.Manager
	rel  *reliable.Endpoint
	book *probeBook
}

func (s *soakNode) Init(env core.Env) {
	s.topo.Init(env)
	s.mgr.Init(env)
}

func (s *soakNode) Deliver(env core.Env, pkt core.Packet) {
	switch p := pkt.Payload.(type) {
	case probeCmd:
		_ = env.Send(anr.Direct([]anr.ID{p.Link}), probeEcho{ID: p.ID})
	case probeEcho:
		s.book.hit(p.ID)
	case relSend:
		// Send errors surface as a lost frame; the ledger check catches it.
		_ = s.rel.SendRoute(env, p.Dst, p.Route, p.Token)
	default:
		// The reliable endpoint consumes frames, acks, ticks — and Garbled,
		// which every protocol here ignores anyway.
		if s.rel.Deliver(env, pkt) {
			return
		}
		s.topo.Deliver(env, pkt)
		s.mgr.Deliver(env, pkt)
	}
}

func (s *soakNode) LinkEvent(env core.Env, port core.Port) {
	s.topo.LinkEvent(env, port)
	s.mgr.LinkEvent(env, port)
}

// callInfo remembers one call set up during the current epoch.
type callInfo struct {
	id     calls.CallID
	caller core.NodeID
	path   []core.NodeID
}

// soakRun is the per-run state of the driver.
type soakRun struct {
	cfg   Config
	g     *graph.Graph
	h     Harness
	st    *State
	rng   *rand.Rand
	gens  []Generator
	sched MsgFaultSchedule
	wit   *Witness
	book  *probeBook
	rel   *relBook
	res   *Result
	opts  []sim.Option // the caller's, appended to every DES network the run builds

	pend    map[int][]Event // soak-scheduled events (leader crashes)
	stalls  Stalls          // zero-valued unless cfg.Stall > 0
	callSeq calls.CallID
	probeID int64
	relSeq  uint64
}

// Soak runs the invariant-checked churn loop on g and reports the result.
// A non-nil error means the run itself broke (runtime error, event-budget
// exhaustion); invariant violations are reported in Result.Violations. Under
// the discrete-event runtime opts are appended to the options of every
// network the run builds — the fabric and the per-epoch election and detector
// networks alike.
func Soak(g *graph.Graph, cfg Config, opts ...sim.Option) (*Result, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("faults: Epochs must be positive")
	}
	if cfg.Rate > 0 {
		if cfg.runtime() != "des" {
			return nil, fmt.Errorf("faults: the open-loop mode needs the discrete-event runtime, not %q", cfg.Runtime)
		}
		return runOpenLoop(g, cfg, opts)
	}
	if cfg.Mode == 0 {
		cfg.Mode = topology.ModeBranching
	}
	r := &soakRun{
		cfg:   cfg,
		g:     g,
		st:    NewState(g),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		sched: cfg.schedule(),
		book:  &probeBook{echo: make(map[int64]bool)},
		rel:   &relBook{got: make(map[uint64][]core.NodeID)},
		res:   &Result{},
		opts:  opts,
		pend:  make(map[int][]Event),
	}
	if cfg.Adversary {
		r.wit = &Witness{}
	}
	if cfg.Flaps > 0 {
		r.gens = append(r.gens, Flaps{PerEpoch: cfg.Flaps, Len: max(1, cfg.FlapLen), Steps: 2})
	}
	if cfg.PartitionEvery > 0 {
		r.gens = append(r.gens, &Partitions{Every: cfg.PartitionEvery, Heal: max(1, cfg.PartitionHeal)})
	}
	if cfg.Crashes > 0 {
		r.gens = append(r.gens, &Churn{PerEpoch: cfg.Crashes, Downtime: max(1, cfg.Downtime)})
	}
	if cfg.Adversary {
		r.gens = append(r.gens, &Adversary{Witness: r.wit})
	}
	if cfg.Stall > 0 {
		r.stalls = Stalls{PerEpoch: cfg.Stall, Window: core.Time(cfg.stallTicks())}
	}

	// View-routed modes run the full-knowledge variant: the incremental one
	// is not self-stabilizing under compound churn (a healed link's down-era
	// records survive at third parties, whose views then exclude the edge,
	// so no broadcast ever crosses it to replace them — only the origin
	// transmits its record, and its own routes froze at heal time). Flooding
	// relays on live ports, not views, so it self-heals incrementally.
	topoFac := topology.NewMaintainer(cfg.Mode, cfg.Mode != topology.ModeFlood, nil)
	factory := func(id core.NodeID) core.Protocol {
		return &soakNode{
			topo: topoFac(id).(topology.Maintainer),
			mgr:  calls.New(id),
			rel: reliable.NewEndpoint(id, reliable.Config{
				RTO: 1,
				OnDeliver: func(_ core.Env, _ core.NodeID, payload any) {
					if token, ok := payload.(uint64); ok {
						r.rel.deliver(id, token)
					}
				},
			}),
			book: r.book,
		}
	}
	dmax := topology.DefaultDmax(cfg.Mode, g.N())
	switch cfg.runtime() {
	case "des":
		opts := []sim.Option{
			sim.WithDelays(0, 1), sim.WithSeed(cfg.Seed), sim.WithDmax(dmax),
			sim.WithEventBudget(500_000_000),
		}
		if cfg.Shards > 0 {
			// Shard mode needs lookahead >= 1: give every hop a unit hardware
			// delay so the partitioner has delay-1 edges to cut.
			opts = append(opts, sim.WithDelays(1, 1), sim.WithShards(cfg.Shards))
		}
		if r.wit != nil {
			opts = append(opts, sim.WithTrace(r.wit))
		}
		r.h = NewSimHarness(sim.New(g, factory, r.with(opts...)...))
	case "gosim":
		opts := []gosim.Option{gosim.WithSeed(cfg.Seed), gosim.WithDmax(dmax)}
		if r.wit != nil {
			opts = append(opts, gosim.WithTrace(r.wit))
		}
		r.h = NewGosimHarness(gosim.New(g, factory, opts...), cfg.Timeout)
	default:
		return nil, fmt.Errorf("faults: unknown runtime %q", cfg.Runtime)
	}
	defer r.h.Close()
	err := r.run()
	if s, ok := r.h.(interface{ SchedStats() sim.SchedStats }); ok {
		r.res.Sched = s.SchedStats()
	}
	return r.res, err
}

// with is own followed by the caller's options.
func (r *soakRun) with(own ...sim.Option) []sim.Option { return append(own, r.opts...) }

func (r *soakRun) node(u core.NodeID) *soakNode { return r.h.Protocol(u).(*soakNode) }

func (r *soakRun) maxRounds() int {
	if r.cfg.MaxRounds > 0 {
		return r.cfg.MaxRounds
	}
	return r.g.N() + 8
}

func (r *soakRun) violate(epoch, inv int, format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	r.res.Violations = append(r.res.Violations,
		fmt.Sprintf("epoch %d: invariant I%d violated: %s", epoch, inv, msg))
}

// converged checks invariant I1: within every live component of 2+ nodes,
// every database matches the ground-truth topology (Theorem 1). On failure
// it names one witness: a node and the component member it is stale about.
//
// Each distinct stored link list is checked against the truth once: after
// convergence all databases of a component hold one array per member
// (topology.SameLinks), so the array last verified for w is that list again.
// Any other array — a node's own rebuild of an equal list, a stale private
// copy — takes the full check and becomes the remembered one.
func (r *soakRun) converged() (string, bool) {
	live := r.st.Live()
	down := r.st.Down()
	good := make([][]topology.LinkInfo, r.g.N()) // good[w]: the last list verified for w (never empty: w has a neighbor)
	one := make([]core.NodeID, 1)
	for _, comp := range live.Components() {
		if len(comp) == 1 {
			continue
		}
		for _, u := range comp {
			db := r.node(u).topo.DB()
			for _, w := range comp {
				rec, ok := db.Record(w)
				if ok && len(good[w]) > 0 && topology.SameLinks(good[w], rec.Links) {
					continue
				}
				one[0] = w
				if !db.KnowsNodes(one, r.g, down) {
					return fmt.Sprintf("node %d is stale about %d (record %v, have=%v; truth degree %d, down %v)",
						u, w, rec, ok, r.g.Degree(w), r.st.DownEdges()), false
				}
				good[w] = rec.Links
			}
		}
	}
	return "", true
}

// convergeRounds triggers full broadcast rounds until the databases match
// the ground truth, and reports the rounds spent (-1: cap exceeded, with
// the last witness of staleness).
func (r *soakRun) convergeRounds() (int, string, error) {
	witness := ""
	for round := 1; round <= r.maxRounds(); round++ {
		for u := 0; u < r.g.N(); u++ {
			r.h.Inject(core.NodeID(u), topology.Trigger{})
		}
		if err := r.h.Quiesce(); err != nil {
			return 0, "", err
		}
		var ok bool
		if witness, ok = r.converged(); ok {
			return round, "", nil
		}
	}
	return -1, witness, nil
}

func (r *soakRun) run() error {
	// Cold start: converge on the pristine topology before any churn.
	if rounds, witness, err := r.convergeRounds(); err != nil {
		return err
	} else if rounds < 0 {
		r.violate(-1, 1, "no convergence on the pristine topology within %d rounds: %s", r.maxRounds(), witness)
		return nil
	}
	for epoch := 0; epoch < r.cfg.Epochs; epoch++ {
		ok, err := r.epoch(epoch)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		r.res.Epochs++
		if w := r.cfg.Verbose; w != nil {
			fmt.Fprintf(w, "epoch %d ok: %s\n", epoch, r.res.Line())
		}
	}
	return nil
}

// epoch runs one churn epoch; ok=false means an invariant failed and the
// run should stop.
//
// With a lossy-link profile configured, message faults are live for the
// phases whose invariants are loss-monotone: I1 convergence (loss only costs
// rounds — the periodic broadcast retries), the I6 reliable-delivery ledger
// (loss costs retransmissions) and the down-direction half of I4 (no fault
// kind may carry a packet across a down link). Exact-state phases — call
// setup and the failure-driven teardowns of applySchedule (a single lost
// teardown legitimately strands hop state; the calls package's own tests
// cover its loss behavior), I3's surviving-call audit, and up-direction
// probes — run on a healed fabric.
func (r *soakRun) epoch(epoch int) (bool, error) {
	r.st.BeginEpoch()
	if r.wit != nil {
		r.wit.Reset()
	}
	profile := r.sched.Profile(epoch)

	// Set up calls at quiescence so the failure-driven teardown invariant
	// is exercised from a clean state.
	infos, err := r.setupCalls(epoch)
	if err != nil {
		return false, err
	}
	if len(r.res.Violations) > 0 {
		return false, nil
	}

	// Plan and apply this epoch's fault schedule, quiescing between steps.
	if err := r.applySchedule(epoch); err != nil {
		return false, err
	}
	// Self-check: the tracker's ground truth must agree with the runtime's
	// hardware state; a divergence is a harness bug, not a violation.
	for _, e := range r.g.Edges() {
		if r.st.EdgeDown(e.U, e.V) != r.h.LinkUp(e.U, e.V) {
			continue
		}
		return false, fmt.Errorf("faults: ground truth diverged at edge %d-%d (tracker down=%v, runtime up=%v)",
			e.U, e.V, r.st.EdgeDown(e.U, e.V), r.h.LinkUp(e.U, e.V))
	}

	// Gray stalls: inflate this epoch's chosen NCUs through the convergence
	// and ledger phases. A stalled node is slow, not down — every invariant
	// below must hold unchanged. The rng is only consulted when stalls are
	// configured, so gray-free runs draw bit-identically to before.
	if r.cfg.Stall > 0 {
		for _, s := range r.stalls.Plan(epoch, r.st, r.rng) {
			r.h.StallNode(s.Node, s.Window, s.Extra)
			r.res.GrayStalls++
		}
	}

	// I1: topology databases re-converge to the ground truth — through the
	// lossy fabric when a profile is configured.
	r.h.SetMsgFaults(profile)
	rounds, witness, err := r.convergeRounds()
	if err != nil {
		return false, err
	}
	if rounds < 0 {
		r.violate(epoch, 1, "databases did not match the ground truth within %d broadcast rounds: %s", r.maxRounds(), witness)
		return false, nil
	}
	r.res.ConvRounds += rounds
	if rounds > r.res.ConvMax {
		r.res.ConvMax = rounds
	}

	// I6: the reliable-delivery ledger balances under loss. Leaves the
	// fabric healed for the exact-state checks below.
	if ok, err := r.checkReliable(epoch, profile); err != nil || !ok {
		return ok, err
	}
	r.h.SetMsgFaults(core.MsgFaults{})

	// I2: the largest live component elects exactly one leader whose
	// domain covers the component.
	if !r.cfg.NoElection {
		if ok, err := r.checkElection(epoch); err != nil || !ok {
			return ok, err
		}
		// I7: the election survives non-FIFO links — re-run it under random
		// delays plus a reorder-only profile; the single-leader/full-domain
		// invariant must hold with the stale-tree recovery paths live.
		if r.cfg.Reorder > 0 {
			if ok, err := r.checkReorderElection(epoch); err != nil || !ok {
				return ok, err
			}
		}
		// I8: gray failures degrade, never kill — an adaptive detector must
		// raise zero suspicions against a live-but-slowed/stalled leader,
		// and with slowdown in the profile the election must still complete
		// within the I7 bound.
		if r.cfg.gray() {
			if ok, err := r.checkGray(epoch); err != nil || !ok {
				return ok, err
			}
		}
	}

	// I3: failure-driven teardown left exactly the right call state.
	if ok, err := r.checkCalls(epoch, infos); err != nil || !ok {
		return ok, err
	}

	// I4: no packet crosses a down link (and up links still carry).
	if ok, err := r.checkProbes(epoch, profile); err != nil || !ok {
		return ok, err
	}

	// I5: the path-length restriction was never violated.
	if m := r.h.Metrics(); m.DmaxViolations != 0 {
		r.violate(epoch, 5, "%d sends exceeded dmax", m.DmaxViolations)
		return false, nil
	}
	r.res.Metrics = r.h.Metrics()
	return true, nil
}

// applySchedule merges all generators' plans for the epoch plus any
// soak-scheduled events (leader crashes), then applies them step group by
// step group with a quiescence barrier between groups.
func (r *soakRun) applySchedule(epoch int) error {
	var evs []Event
	for _, gen := range r.gens {
		evs = append(evs, gen.Plan(epoch, r.st, r.rng)...)
	}
	evs = append(evs, r.pend[epoch]...)
	delete(r.pend, epoch)
	sortEvents(evs)
	for i := 0; i < len(evs); {
		j := i
		for j < len(evs) && evs[j].Step == evs[i].Step {
			for _, flip := range r.st.Apply(evs[j]) {
				r.h.InjectLink(flip.U, flip.V, flip.Up)
				r.res.FaultFlips++
			}
			j++
		}
		if err := r.h.Quiesce(); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// setupCalls opens cfg.Calls calls over the current live topology and
// confirms each one before any faults are injected.
func (r *soakRun) setupCalls(epoch int) ([]callInfo, error) {
	var out []callInfo
	if r.cfg.Calls <= 0 {
		return nil, nil
	}
	live := r.st.Live()
	trees := newTreeMemo(live)
	var callers []core.NodeID
	for v := 0; v < live.N(); v++ {
		if live.Degree(core.NodeID(v)) > 0 {
			callers = append(callers, core.NodeID(v))
		}
	}
	pm := r.h.PortMap()
	for i := 0; i < r.cfg.Calls && len(callers) > 0; i++ {
		caller := callers[r.rng.Intn(len(callers))]
		dist := trees.tree(caller).Depth
		var far, near []core.NodeID
		for v := 0; v < live.N(); v++ {
			switch {
			case dist[v] >= 2:
				far = append(far, core.NodeID(v))
			case dist[v] == 1:
				near = append(near, core.NodeID(v))
			}
		}
		pool := far
		if len(pool) == 0 {
			pool = near
		}
		if len(pool) == 0 {
			continue
		}
		callee := pool[r.rng.Intn(len(pool))]
		path := trees.tree(caller).PathFromRoot(callee)
		links, err := pm.RouteLinks(path)
		if err != nil {
			return nil, fmt.Errorf("faults: routing call path: %w", err)
		}
		r.callSeq++
		id := r.callSeq
		r.h.Inject(caller, &calls.SetupCmd{Call: id, Route: anr.CopyPath(links)})
		if err := r.h.Quiesce(); err != nil {
			return nil, err
		}
		if got := r.node(caller).mgr.Status(id); got != calls.StatusActive {
			r.violate(epoch, 3, "call %d (%d->%d) is %s after quiescent setup, want active", id, caller, callee, got)
			return out, nil
		}
		r.res.CallsSetUp++
		out = append(out, callInfo{id: id, caller: caller, path: path})
	}
	return out, nil
}

// checkReliable exercises invariant I6 ("every applied update was sent
// exactly once"): cfg.Reliable ledger tokens are sent between random pairs of
// the largest live component while the fabric is lossy, retransmission ticks
// drive the ARQ through the loss, then the fabric heals and the remaining
// backlog flushes. Every token must land at its destination exactly once —
// no duplicate application past the dedup window, no phantom application
// from a corrupted frame slipping the checksum — and no frame may still be
// pending afterwards.
func (r *soakRun) checkReliable(epoch int, profile core.MsgFaults) (bool, error) {
	if r.cfg.Reliable <= 0 {
		return true, nil
	}
	live := r.st.Live()
	trees := newTreeMemo(live)
	var comp []core.NodeID
	for _, c := range live.Components() {
		if len(c) > len(comp) {
			comp = c
		}
	}
	if len(comp) < 2 {
		return true, nil
	}
	pm := r.h.PortMap()
	type ledgerEntry struct {
		token    uint64
		src, dst core.NodeID
	}
	var batch []ledgerEntry
	senders := make(map[core.NodeID]bool)
	for i := 0; i < r.cfg.Reliable; i++ {
		si := r.rng.Intn(len(comp))
		di := r.rng.Intn(len(comp) - 1)
		if di >= si {
			di++
		}
		src, dst := comp[si], comp[di]
		path := trees.tree(src).PathFromRoot(dst)
		links, err := pm.RouteLinks(path)
		if err != nil {
			return false, fmt.Errorf("faults: routing ledger token: %w", err)
		}
		r.relSeq++
		batch = append(batch, ledgerEntry{token: r.relSeq, src: src, dst: dst})
		senders[src] = true
		r.h.Inject(src, relSend{Dst: dst, Route: anr.Direct(links), Token: r.relSeq})
	}
	if err := r.h.Quiesce(); err != nil {
		return false, err
	}
	// Tick injection order must be stable for discrete-event determinism.
	order := make([]core.NodeID, 0, len(senders))
	for u := range senders {
		order = append(order, u)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	tick := func() error {
		for _, u := range order {
			r.h.Inject(u, reliable.Tick{})
		}
		return r.h.Quiesce()
	}
	backlog := func() int {
		n := 0
		for _, u := range order {
			n += r.node(u).rel.Pending()
		}
		return n
	}
	// Retransmit through the loss for a few rounds, then heal and flush the
	// rest; 64 ticks clears any backoff the lossy rounds piled up (the cap
	// is 16 ticks at the default RTO of 1).
	for t := 0; t < 8 && backlog() > 0; t++ {
		if err := tick(); err != nil {
			return false, err
		}
	}
	r.h.SetMsgFaults(core.MsgFaults{})
	for t := 0; t < 64 && backlog() > 0; t++ {
		if err := tick(); err != nil {
			return false, err
		}
	}
	if n := backlog(); n > 0 {
		r.violate(epoch, 6, "%d reliable frames still pending after the fabric healed", n)
		return false, nil
	}
	for _, s := range batch {
		got := r.rel.deliveries(s.token)
		switch {
		case len(got) == 0:
			r.violate(epoch, 6, "ledger token %d (%d->%d) was never applied", s.token, s.src, s.dst)
			return false, nil
		case len(got) > 1:
			r.violate(epoch, 6, "ledger token %d (%d->%d) applied %d times at %v", s.token, s.src, s.dst, len(got), got)
			return false, nil
		case got[0] != s.dst:
			r.violate(epoch, 6, "ledger token %d (%d->%d) applied at wrong node %d", s.token, s.src, s.dst, got[0])
			return false, nil
		}
	}
	// Phantom sweep: the ledger may hold exactly the tokens ever sent. A
	// corrupted frame that slipped verification would apply a token value
	// nothing sent (or double-apply a real one — caught above).
	if n := r.rel.size(); n != int(r.relSeq) {
		r.violate(epoch, 6, "delivery ledger holds %d tokens, want the %d ever sent — phantom application", n, r.relSeq)
		return false, nil
	}
	var sent, retx, dup, bad int64
	for v := 0; v < r.g.N(); v++ {
		st := r.node(core.NodeID(v)).rel.Stats()
		sent += st.Sent
		retx += st.Retransmits
		dup += st.Duplicates
		bad += st.BadSum
	}
	r.res.RelSent, r.res.RelRetrans, r.res.RelDupes, r.res.RelBadSum = sent, retx, dup, bad
	return true, nil
}

// checkCalls verifies invariant I3: every call whose path was touched by a
// failure is fully torn down with the caller notified; every untouched call
// is fully intact. Survivors are then torn down and the epoch must end with
// zero residual per-hop state anywhere.
func (r *soakRun) checkCalls(epoch int, infos []callInfo) (bool, error) {
	for _, ci := range infos {
		touched := false
		for k := 0; k+1 < len(ci.path); k++ {
			if r.st.Touched(ci.path[k], ci.path[k+1]) {
				touched = true
				break
			}
		}
		status := r.node(ci.caller).mgr.Status(ci.id)
		if touched {
			if status != calls.StatusFailed {
				r.violate(epoch, 3, "call %d crossed a failed link but caller %d reports %s, want failed", ci.id, ci.caller, status)
				return false, nil
			}
			for _, v := range ci.path {
				if r.node(v).mgr.Holds(ci.id) {
					r.violate(epoch, 3, "residual state for failed call %d at node %d", ci.id, v)
					return false, nil
				}
			}
			r.res.CallsFailed++
			continue
		}
		if status != calls.StatusActive {
			r.violate(epoch, 3, "untouched call %d reports %s at caller %d, want active", ci.id, status, ci.caller)
			return false, nil
		}
		for _, v := range ci.path[1:] {
			if !r.node(v).mgr.Holds(ci.id) {
				r.violate(epoch, 3, "untouched call %d lost its state at node %d", ci.id, v)
				return false, nil
			}
		}
		r.h.Inject(ci.caller, &calls.TeardownCmd{Call: ci.id})
		r.res.CallsTorn++
	}
	if err := r.h.Quiesce(); err != nil {
		return false, err
	}
	for v := 0; v < r.g.N(); v++ {
		if residual := r.node(core.NodeID(v)).mgr.Calls(); len(residual) != 0 {
			r.violate(epoch, 3, "node %d still holds call state %v after teardown", v, residual)
			return false, nil
		}
	}
	return true, nil
}

// checkElection verifies invariant I2 on the largest live component: the §4
// algorithm elects exactly one leader, its domain covers the component, and
// the tour cost respects Theorem 5's 6n bound. With probability LeaderCrash
// the elected leader is crashed next epoch (and restored after Downtime).
func (r *soakRun) checkElection(epoch int) (bool, error) {
	live := r.st.Live()
	comps := live.Components()
	var comp []core.NodeID
	for _, c := range comps {
		if len(c) > len(comp) {
			comp = c
		}
	}
	if len(comp) < 2 {
		return true, nil // nothing to elect over
	}
	sub, ids := inducedSubgraph(live, comp)
	nStart := 1 + r.rng.Intn(min(3, len(comp)))
	perm := r.rng.Perm(len(comp))
	starters := make([]core.NodeID, nStart)
	for i := 0; i < nStart; i++ {
		starters[i] = core.NodeID(perm[i])
	}
	var (
		res election.Result
		err error
	)
	seed := r.cfg.Seed + int64(epoch) + 1
	if r.cfg.runtime() == "gosim" {
		timeout := r.cfg.Timeout
		if timeout <= 0 {
			timeout = 30 * time.Second
		}
		res, err = election.RunAsync(sub, election.AlgoToken, starters, seed, timeout)
	} else {
		res, err = election.Run(sub, election.AlgoToken, starters, r.with(sim.WithSeed(seed))...)
	}
	if err != nil {
		r.violate(epoch, 2, "re-election on the largest component (%d nodes): %v", len(comp), err)
		return false, nil
	}
	if res.LeaderDomain != len(comp) {
		r.violate(epoch, 2, "leader %d has domain %d, want the whole component (%d)", ids[res.Leader], res.LeaderDomain, len(comp))
		return false, nil
	}
	if bound := int64(6 * len(comp)); res.AlgorithmMessages > bound {
		r.violate(epoch, 2, "election used %d algorithm messages, above Theorem 5's bound %d", res.AlgorithmMessages, bound)
		return false, nil
	}
	r.res.Elections++
	r.res.ReelectMsgs += res.AlgorithmMessages
	r.res.ReelectTime += res.Metrics.FinishTime
	if res.Metrics.FinishTime > r.res.ReelectMax {
		r.res.ReelectMax = res.Metrics.FinishTime
	}
	if r.cfg.LeaderCrash > 0 && r.rng.Float64() < r.cfg.LeaderCrash {
		leader := ids[res.Leader]
		r.pend[epoch+1] = append(r.pend[epoch+1], Event{Step: 0, Kind: Crash, U: leader})
		back := epoch + 1 + max(1, r.cfg.Downtime)
		r.pend[back] = append(r.pend[back], Event{Step: 0, Kind: Restore, U: leader})
	}
	return true, nil
}

// checkReorderElection verifies invariant I7 on the largest live component:
// the §4 algorithm still elects exactly one leader owning the whole
// component when links violate FIFO — randomized hardware delays plus a
// reorder-only fault profile (loss would be a different invariant; the
// election assumes reliable-or-declared-down links). The run's recovery
// counters are accumulated so the soak line shows how often the stale-tree
// fallbacks actually fired.
func (r *soakRun) checkReorderElection(epoch int) (bool, error) {
	live := r.st.Live()
	comps := live.Components()
	var comp []core.NodeID
	for _, c := range comps {
		if len(c) > len(comp) {
			comp = c
		}
	}
	if len(comp) < 2 {
		return true, nil
	}
	sub, ids := inducedSubgraph(live, comp)
	profile := core.MsgFaults{Reorder: r.cfg.Reorder, ReorderWindow: core.Time(r.cfg.reorderWindow())}
	seed := r.cfg.Seed*1000003 + int64(epoch) + 7
	var (
		res election.Result
		err error
	)
	if r.cfg.runtime() == "gosim" {
		timeout := r.cfg.Timeout
		if timeout <= 0 {
			timeout = 30 * time.Second
		}
		res, err = election.RunAsync(sub, election.AlgoToken, allOf(len(comp)), seed, timeout,
			gosim.WithMsgFaults(profile))
	} else {
		res, err = election.Run(sub, election.AlgoToken, allOf(len(comp)),
			r.with(sim.WithDelays(3, 2), sim.WithRandomDelays(), sim.WithSeed(seed),
				sim.WithMsgFaults(profile))...)
	}
	if err != nil {
		r.violate(epoch, 7, "reordered re-election on the largest component (%d nodes): %v", len(comp), err)
		return false, nil
	}
	if res.LeaderDomain != len(comp) {
		r.violate(epoch, 7, "reordered election: leader %d has domain %d, want the whole component (%d)",
			ids[res.Leader], res.LeaderDomain, len(comp))
		return false, nil
	}
	if bound := int64(6 * len(comp)); res.AlgorithmMessages > bound {
		r.violate(epoch, 7, "reordered election used %d algorithm messages, above Theorem 5's bound %d",
			res.AlgorithmMessages, bound)
		return false, nil
	}
	r.res.ReorderElections++
	r.res.ReorderRecoveries += res.Stats.Recoveries.Load()
	return true, nil
}

// checkGray verifies invariant I8 on the largest live component, in two
// phases. First the degradation direction: every node arms an adaptive
// (phi-accrual) failure detector on a fixed leader and probes it for 24
// periods through the gray fabric — slowed links, and mid-run a GC-style
// NCU stall of the leader itself when stalls are configured. The leader is
// slow but alive the whole time, so any suspicion is a false deposition and
// an I8 violation (a fixed-miss detector is provably fooled here: with
// randomized per-hop delays the probe RTT exceeds the beat period, so the
// miss streak never clears). Then the progress direction: with slowdown in
// the profile the §4 election must still elect one leader owning the whole
// component within Theorem 5's message bound — gray links stretch the
// election, they must not wedge it.
func (r *soakRun) checkGray(epoch int) (bool, error) {
	live := r.st.Live()
	comps := live.Components()
	var comp []core.NodeID
	for _, c := range comps {
		if len(c) > len(comp) {
			comp = c
		}
	}
	if len(comp) < 2 {
		return true, nil
	}
	sub, ids := inducedSubgraph(live, comp)
	var slowOnly core.MsgFaults
	if r.cfg.Slow > 0 {
		slowOnly = core.MsgFaults{
			Slowdown:   r.cfg.Slow,
			SlowFactor: r.cfg.slowFactor(),
			SlowMax:    core.Time(r.cfg.slowMax()),
		}
	}
	timeout := r.cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	// Phase 1: the detector scenario. Leader is local node 0 (ground truth
	// keeps it live — only the harness stalls it); probes travel the BFS
	// tree paths, acks the hardware reverse route.
	const (
		beats = 24
		phi   = 3
	)
	leader := core.NodeID(0)
	tree := sub.BFSTree(leader)
	maxDepth := 1
	for v := 0; v < sub.N(); v++ {
		if tree.Depth[v] > maxDepth {
			maxDepth = tree.Depth[v]
		}
	}
	seed := r.cfg.Seed*7776001 + int64(epoch) + 11
	dets := make([]*election.Detector, sub.N())
	factory := func(id core.NodeID) core.Protocol {
		dets[id] = election.NewAdaptiveDetector(id, phi)
		return &election.DetectorNode{D: dets[id]}
	}
	arm := func(pm *core.PortMap) error {
		for v := 0; v < sub.N(); v++ {
			u := core.NodeID(v)
			if u == leader {
				dets[u].SetLeader(leader, nil)
				continue
			}
			path := tree.PathFromRoot(u)
			rev := make([]core.NodeID, len(path))
			for i, p := range path {
				rev[len(path)-1-i] = p
			}
			links, err := pm.RouteLinks(rev)
			if err != nil {
				return fmt.Errorf("faults: gray detector route to leader: %w", err)
			}
			dets[u].SetLeader(leader, anr.Direct(links))
		}
		return nil
	}
	if r.cfg.runtime() == "gosim" {
		// No time model: the quiescence barrier between beats stands in for
		// the probe period, and the leader stall is an activation-count
		// window of deschedules. The detector must stay unsuspicious while
		// the scheduler does its worst.
		net := gosim.New(sub, factory, gosim.WithSeed(seed), gosim.WithMsgFaults(slowOnly))
		if err := arm(net.PortMap()); err != nil {
			net.Shutdown()
			return false, err
		}
		for i := 1; i <= beats; i++ {
			if r.cfg.Stall > 0 && i == beats/2 {
				net.StallNode(leader, core.Time(2*sub.N()), core.Time(r.cfg.stallTicks()))
			}
			for v := 0; v < sub.N(); v++ {
				if core.NodeID(v) != leader {
					net.Inject(core.NodeID(v), election.BeatTick{})
				}
			}
			if err := net.AwaitQuiescence(timeout); err != nil {
				net.Shutdown()
				return false, fmt.Errorf("faults: gray detector scenario: %w", err)
			}
		}
		net.Shutdown()
	} else {
		// The period covers both dimensions of load: probes travel ~8·depth
		// of randomized fabric, and the leader is a *serial* NCU answering
		// n-1 probers per period, so the period must also cover n·swDelay of
		// ack service or the leader's queue grows without bound and honest
		// slowness turns into unbounded silence.
		net := sim.New(sub, factory,
			r.with(sim.WithDelays(3, 2), sim.WithRandomDelays(), sim.WithSeed(seed),
				sim.WithMsgFaults(slowOnly))...)
		if err := arm(net.PortMap()); err != nil {
			return false, err
		}
		period := core.Time(8*maxDepth + 4*sub.N())
		for i := 1; i <= beats; i++ {
			at := core.Time(i) * period
			for v := 0; v < sub.N(); v++ {
				if core.NodeID(v) != leader {
					net.Inject(at, core.NodeID(v), election.BeatTick{})
				}
			}
		}
		if r.cfg.Stall > 0 {
			// Mid-run the leader itself goes gray: every activation inside a
			// two-period window pays a surcharge sized so the injected
			// backlog is ~two periods of work — probers see ack silences
			// several periods long (enough to burn a fixed miss budget of 3)
			// while phi, tracking the learned inter-arrival mean, stays put.
			if _, err := net.RunUntil(core.Time(beats/2) * period); err != nil {
				return false, fmt.Errorf("faults: gray detector scenario: %w", err)
			}
			net.StallNode(leader, 2*period, max(1, 2*period/core.Time(sub.N())))
		}
		if _, err := net.Run(); err != nil {
			return false, fmt.Errorf("faults: gray detector scenario: %w", err)
		}
	}
	for v := 0; v < sub.N(); v++ {
		u := core.NodeID(v)
		if u == leader {
			continue
		}
		st := dets[u].Stats()
		st.Leader = ids[leader]
		if st.Phi >= r.res.Det.Phi {
			r.res.Det = st
		}
		if st.Suspected {
			r.res.GraySuspects++
			r.violate(epoch, 8, "adaptive detector at node %d deposed the live-but-gray leader %d (phi=%.2f misses=%d lastAck=%d)",
				ids[u], ids[leader], st.Phi, st.Misses, st.LastAckTick)
		}
	}
	if r.res.GraySuspects > 0 {
		return false, nil
	}

	// Phase 2: the gray election — only meaningful with slowdown in the
	// fabric (a stall-only config exercises the main election via I2).
	if r.cfg.Slow == 0 {
		return true, nil
	}
	profile := slowOnly
	if r.cfg.Reorder > 0 {
		profile.Reorder = r.cfg.Reorder
		profile.ReorderWindow = core.Time(r.cfg.reorderWindow())
	}
	eseed := r.cfg.Seed*1000003 + int64(epoch) + 13
	var (
		res election.Result
		err error
	)
	if r.cfg.runtime() == "gosim" {
		res, err = election.RunAsync(sub, election.AlgoToken, allOf(len(comp)), eseed, timeout,
			gosim.WithMsgFaults(profile))
	} else {
		res, err = election.Run(sub, election.AlgoToken, allOf(len(comp)),
			r.with(sim.WithDelays(3, 2), sim.WithRandomDelays(), sim.WithSeed(eseed),
				sim.WithMsgFaults(profile))...)
	}
	if err != nil {
		r.violate(epoch, 8, "gray re-election on the largest component (%d nodes): %v", len(comp), err)
		return false, nil
	}
	if res.LeaderDomain != len(comp) {
		r.violate(epoch, 8, "gray election: leader %d has domain %d, want the whole component (%d)",
			ids[res.Leader], res.LeaderDomain, len(comp))
		return false, nil
	}
	if bound := int64(6 * len(comp)); res.AlgorithmMessages > bound {
		r.violate(epoch, 8, "gray election used %d algorithm messages, above Theorem 5's bound %d",
			res.AlgorithmMessages, bound)
		return false, nil
	}
	r.res.GrayElections++
	return true, nil
}

// allOf lists node IDs 0..n-1 (starters for the reordered election: every
// node, maximizing concurrent tours and thus reorder pressure).
func allOf(n int) []core.NodeID {
	out := make([]core.NodeID, n)
	for i := range out {
		out[i] = core.NodeID(i)
	}
	return out
}

// checkProbes verifies invariant I4 behaviorally: a probe across every down
// link must be swallowed by the hardware, and a sample of up links must
// still carry traffic. Down-direction probes go out with the lossy profile
// live — a duplicated or jittered copy must not cross a down link either —
// while up-direction probes run healed (loss would legitimately eat them).
func (r *soakRun) checkProbes(epoch int, profile core.MsgFaults) (bool, error) {
	pm := r.h.PortMap()
	type probe struct {
		id   int64
		e    graph.Edge
		want bool // expect the echo to arrive
	}
	send := func(probes []probe) error {
		for _, p := range probes {
			link, ok := pm.Toward(p.e.U, p.e.V)
			if !ok {
				return fmt.Errorf("faults: no port %d->%d", p.e.U, p.e.V)
			}
			r.h.Inject(p.e.U, probeCmd{Link: link, ID: p.id})
			r.res.ProbesSent++
			if !p.want {
				r.res.ProbesDown++
			}
		}
		return r.h.Quiesce()
	}
	var downProbes, upProbes []probe
	down := r.st.DownEdges()
	if len(down) > 64 {
		down = down[:64]
	}
	for _, e := range down {
		r.probeID++
		downProbes = append(downProbes, probe{id: r.probeID, e: e, want: false})
	}
	up := r.st.UpEdges()
	for i := 0; i < 16 && len(up) > 0; i++ {
		j := r.rng.Intn(len(up))
		e := up[j]
		up = append(up[:j], up[j+1:]...)
		r.probeID++
		upProbes = append(upProbes, probe{id: r.probeID, e: e, want: true})
	}
	r.h.SetMsgFaults(profile)
	if err := send(downProbes); err != nil {
		return false, err
	}
	r.h.SetMsgFaults(core.MsgFaults{})
	if err := send(upProbes); err != nil {
		return false, err
	}
	for _, p := range append(downProbes, upProbes...) {
		got := r.book.sawEcho(p.id)
		if got && !p.want {
			r.violate(epoch, 4, "packet crossed down link %d-%d", p.e.U, p.e.V)
			return false, nil
		}
		if !got && p.want {
			r.violate(epoch, 4, "up link %d-%d dropped a packet", p.e.U, p.e.V)
			return false, nil
		}
	}
	return true, nil
}

// inducedSubgraph maps comp onto a compact 0..k-1 graph; ids maps local
// node IDs back to g's.
func inducedSubgraph(g *graph.Graph, comp []core.NodeID) (*graph.Graph, []core.NodeID) {
	idx := make(map[core.NodeID]int, len(comp))
	ids := make([]core.NodeID, len(comp))
	for i, v := range comp {
		idx[v] = i
		ids[i] = v
	}
	sub := graph.New(len(comp))
	for _, e := range g.Edges() {
		iu, uOK := idx[e.U]
		iv, vOK := idx[e.V]
		if uOK && vOK {
			sub.MustAddEdge(core.NodeID(iu), core.NodeID(iv))
		}
	}
	return sub, ids
}

// treeMemo caches BFS trees per source over one fixed live-graph snapshot,
// so a soak phase that routes many calls or ledger tokens from the same
// node runs one traversal instead of one per route. The memo must not
// outlive the snapshot it was built from.
type treeMemo struct {
	g     *graph.Graph
	trees map[core.NodeID]*graph.Tree
}

func newTreeMemo(g *graph.Graph) *treeMemo {
	return &treeMemo{g: g, trees: make(map[core.NodeID]*graph.Tree)}
}

func (m *treeMemo) tree(src core.NodeID) *graph.Tree {
	if t, ok := m.trees[src]; ok {
		return t
	}
	t := m.g.BFSTree(src)
	m.trees[src] = t
	return t
}
