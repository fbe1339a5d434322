package faults

import (
	"errors"
	"fmt"
	"math/rand"

	"fastnet/internal/calls"
	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/reliable"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// violations is the error an invariant check returns when its invariant does
// not hold: one entry per violation, each carrying the epoch (-1 is the cold
// start) and the k of Ik. A run stops on it and reports it in
// Result.Violations; any other error means the run itself broke. Every check
// reports one violation but I8's detector scenario, which reports one per
// fooled detector.
type violations []struct {
	epoch, inv int
	msg        string
}

func (vs violations) Error() string { return fmt.Sprintf("%d invariant violation(s)", len(vs)) }

// violated builds the error for invariant inv failing in epoch.
func violated(epoch, inv int, format string, a ...any) violations {
	return violations{{epoch, inv, fmt.Sprintf(format, a...)}}
}

// settle files the error that stopped a run: violations belong to the result
// of a run that worked, anything else is returned as the run's failure.
func (r *Result) settle(err error) error {
	var vs violations
	if !errors.As(err, &vs) {
		return err
	}
	for _, v := range vs {
		r.Violations = append(r.Violations, fmt.Sprintf("epoch %d: invariant I%d violated: %s", v.epoch, v.inv, v.msg))
	}
	return nil
}

// soakRun is the per-run state of the driver.
type soakRun struct {
	cfg  Config // normalized
	g    *graph.Graph
	h    harness
	st   *state
	rng  *rand.Rand
	gens []generator
	wit  *witness
	book *probeBook
	rel  *relBook
	res  *Result
	opts []sim.Option // the caller's, appended to every DES network the run builds

	pend    map[int][]event // soak-scheduled events (leader crashes)
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
	if err := cfg.check(); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	cfg.normalize()
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("faults: Epochs must be positive")
	}
	if cfg.Rate > 0 {
		// The open loop runs the load engine on the classic scheduler, with
		// no convergence rounds: a knob it would ignore is refused instead.
		switch {
		case cfg.Runtime != "des":
			return nil, fmt.Errorf("faults: the open-loop mode needs the discrete-event runtime, not %q", cfg.Runtime)
		case cfg.Shards > 0:
			return nil, fmt.Errorf("faults: the open-loop mode runs on the classic scheduler: -shards %d would do nothing", cfg.Shards)
		case cfg.MaxRounds > 0:
			return nil, fmt.Errorf("faults: the open-loop mode has no convergence rounds: -max-rounds %d would do nothing", cfg.MaxRounds)
		}
		return runOpenLoop(g, cfg, opts)
	}
	r := &soakRun{
		cfg:  cfg,
		g:    g,
		st:   newState(g),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		book: &probeBook{echo: make(map[int64]bool)},
		rel:  &relBook{got: make(map[uint64][]core.NodeID)},
		res:  &Result{},
		opts: opts,
		pend: make(map[int][]event),
	}
	if cfg.Flaps > 0 {
		r.gens = append(r.gens, flaps{PerEpoch: cfg.Flaps, Len: cfg.FlapLen})
	}
	if cfg.PartitionEvery > 0 {
		r.gens = append(r.gens, &partitions{Every: cfg.PartitionEvery, Heal: cfg.PartitionHeal})
	}
	if cfg.Crashes > 0 {
		r.gens = append(r.gens, &churn{PerEpoch: cfg.Crashes, Downtime: cfg.Downtime})
	}
	if cfg.Adversary {
		r.wit = &witness{}
		r.gens = append(r.gens, &adversary{Witness: r.wit})
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
	switch cfg.Runtime {
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
		r.h = simHarness{sim.New(g, factory, r.with(opts...)...)}
	case "gosim":
		opts := []gosim.Option{gosim.WithSeed(cfg.Seed), gosim.WithDmax(dmax)}
		if r.wit != nil {
			opts = append(opts, gosim.WithTrace(r.wit))
		}
		r.h = gosimHarness{gosim.New(g, factory, opts...), cfg.Timeout}
	default:
		return nil, fmt.Errorf("faults: unknown runtime %q", cfg.Runtime)
	}
	defer r.h.Close()
	err := r.res.settle(r.run())
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

// run is the soak loop; it returns what stopped it short of cfg.Epochs clean
// epochs, a violation or a failure of the run itself.
func (r *soakRun) run() error {
	// Cold start: converge on the pristine topology before any churn.
	if rounds, witness, err := r.convergeRounds(); err != nil {
		return err
	} else if rounds < 0 {
		return violated(-1, 1, "no convergence on the pristine topology within %d rounds: %s", r.maxRounds(), witness)
	}
	for epoch := 0; epoch < r.cfg.Epochs; epoch++ {
		if err := r.epoch(epoch); err != nil {
			return err
		}
		r.res.Epochs++
		if w := r.cfg.Verbose; w != nil {
			fmt.Fprintf(w, "epoch %d ok: %s\n", epoch, r.res.Line())
		}
	}
	return nil
}

// epoch runs one churn epoch and every invariant check after it.
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
func (r *soakRun) epoch(epoch int) error {
	r.st.beginEpoch()
	if r.wit != nil {
		r.wit.reset()
	}
	profile := r.cfg.profile(epoch)

	// Set up calls at quiescence so the failure-driven teardown invariant
	// is exercised from a clean state.
	infos, err := r.setupCalls(epoch)
	if err != nil {
		return err
	}

	// Plan and apply this epoch's fault schedule, quiescing between steps.
	if err := r.applySchedule(epoch); err != nil {
		return err
	}
	// Self-check: the tracker's ground truth must agree with the runtime's
	// hardware state; a divergence is a harness bug, not a violation.
	for _, e := range r.g.Edges() {
		if r.st.edgeDown(e.U, e.V) != r.h.LinkUp(e.U, e.V) {
			continue
		}
		return fmt.Errorf("faults: ground truth diverged at edge %d-%d (tracker down=%v, runtime up=%v)",
			e.U, e.V, r.st.edgeDown(e.U, e.V), r.h.LinkUp(e.U, e.V))
	}

	// Gray stalls: inflate this epoch's chosen NCUs through the convergence
	// and ledger phases, by StallTicks per activation for a window of
	// StallTicks. A stalled node is slow, not down — every invariant below
	// must hold unchanged. The rng is only consulted when stalls are
	// configured, so gray-free runs draw bit-identically to before.
	for _, v := range stalled(r.cfg.Stall, r.st, r.rng) {
		r.h.StallNode(v, core.Time(r.cfg.StallTicks), core.Time(r.cfg.StallTicks))
		r.res.GrayStalls++
	}

	// I1: topology databases re-converge to the ground truth — through the
	// lossy fabric when a profile is configured.
	r.h.SetMsgFaults(profile)
	rounds, witness, err := r.convergeRounds()
	if err != nil {
		return err
	}
	if rounds < 0 {
		return violated(epoch, 1, "databases did not match the ground truth within %d broadcast rounds: %s", r.maxRounds(), witness)
	}
	r.res.ConvRounds += rounds
	r.res.ConvMax = max(r.res.ConvMax, rounds)

	// I6: the reliable-delivery ledger balances under loss. Leaves the
	// fabric healed for the exact-state checks below.
	if err := r.checkReliable(epoch, profile); err != nil {
		return err
	}
	r.h.SetMsgFaults(core.MsgFaults{})

	// I2, and I7 and I8 when armed: the election on the largest live component.
	if err := r.checkElections(epoch); err != nil {
		return err
	}

	// I3: failure-driven teardown left exactly the right call state.
	if err := r.checkCalls(epoch, infos); err != nil {
		return err
	}

	// I4: no packet crosses a down link (and up links still carry).
	if err := r.checkProbes(epoch, profile); err != nil {
		return err
	}

	// I5: the path-length restriction was never violated.
	if m := r.h.Metrics(); m.DmaxViolations != 0 {
		return violated(epoch, 5, "%d sends exceeded dmax", m.DmaxViolations)
	}
	r.res.Metrics = r.h.Metrics()
	return nil
}

// applySchedule merges all generators' plans for the epoch plus any
// soak-scheduled events (leader crashes), then applies them step group by
// step group with a quiescence barrier between groups.
func (r *soakRun) applySchedule(epoch int) error {
	var evs []event
	for _, gen := range r.gens {
		evs = append(evs, gen.Plan(epoch, r.st, r.rng)...)
	}
	evs = append(evs, r.pend[epoch]...)
	delete(r.pend, epoch)
	sortEvents(evs)
	for i := 0; i < len(evs); {
		j := i
		for j < len(evs) && evs[j].Step == evs[i].Step {
			for _, flip := range r.st.apply(evs[j]) {
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
