package faults

import (
	"errors"
	"fmt"
	"sort"

	"fastnet/internal/anr"
	"fastnet/internal/calls"
	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/reliable"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// converged checks invariant I1 (topology.Converged: within every live
// component of 2+ nodes, every database matches the ground-truth topology,
// Theorem 1). On failure it names one witness: a node and the component
// member it is stale about.
func (r *soakRun) converged() (string, bool) {
	u, w, ok := topology.Converged(r.g, r.st.downSet(), func(u core.NodeID) *topology.DB { return r.node(u).topo.DB() })
	if ok {
		return "", true
	}
	rec, have := r.node(u).topo.DB().Record(w)
	return fmt.Sprintf("node %d is stale about %d (record %v, have=%v; truth degree %d, down %v)",
		u, w, rec, have, r.g.Degree(w), r.st.downEdges()), false
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

// callInfo remembers one call set up during the current epoch.
type callInfo struct {
	id     calls.CallID
	caller core.NodeID
	path   []core.NodeID
}

// setupCalls opens cfg.Calls calls over the current live topology and
// confirms each one before any faults are injected (the setup half of I3).
func (r *soakRun) setupCalls(epoch int) ([]callInfo, error) {
	var out []callInfo
	if r.cfg.Calls <= 0 {
		return nil, nil
	}
	live := r.st.liveGraph()
	var callers []core.NodeID
	for v := 0; v < live.N(); v++ {
		if live.Degree(core.NodeID(v)) > 0 {
			callers = append(callers, core.NodeID(v))
		}
	}
	pm := r.h.PortMap()
	for i := 0; i < r.cfg.Calls && len(callers) > 0; i++ {
		caller := callers[r.rng.Intn(len(callers))]
		tree := live.BFSTree(caller)
		dist := tree.Depth
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
		path := tree.PathFromRoot(callee)
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
			return nil, violated(epoch, 3, "call %d (%d->%d) is %s after quiescent setup, want active", id, caller, callee, got)
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
func (r *soakRun) checkReliable(epoch int, profile core.MsgFaults) error {
	if r.cfg.Reliable <= 0 {
		return nil
	}
	live, comp := r.st.largestComponent()
	if len(comp) < 2 {
		return nil
	}
	pairs := make([][2]core.NodeID, r.cfg.Reliable)
	for i := range pairs {
		si := r.rng.Intn(len(comp))
		di := r.rng.Intn(len(comp) - 1)
		if di >= si {
			di++
		}
		pairs[i] = [2]core.NodeID{comp[si], comp[di]}
	}
	routes, err := r.h.PortMap().RoutePairs(live, pairs)
	if err != nil {
		return fmt.Errorf("faults: routing ledger tokens: %w", err)
	}
	first := r.relSeq + 1 // pairs[i] carries token first+i
	senders := make(map[core.NodeID]bool)
	for i, p := range pairs {
		r.relSeq++
		senders[p[0]] = true
		r.h.Inject(p[0], relSend{Dst: p[1], Route: anr.Direct(routes[i]), Token: r.relSeq})
	}
	if err := r.h.Quiesce(); err != nil {
		return err
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
			return err
		}
	}
	r.h.SetMsgFaults(core.MsgFaults{})
	for t := 0; t < 64 && backlog() > 0; t++ {
		if err := tick(); err != nil {
			return err
		}
	}
	if n := backlog(); n > 0 {
		return violated(epoch, 6, "%d reliable frames still pending after the fabric healed", n)
	}
	for i, p := range pairs {
		token := first + uint64(i)
		got := r.rel.deliveries(token)
		switch {
		case len(got) == 0:
			return violated(epoch, 6, "ledger token %d (%d->%d) was never applied", token, p[0], p[1])
		case len(got) > 1:
			return violated(epoch, 6, "ledger token %d (%d->%d) applied %d times at %v", token, p[0], p[1], len(got), got)
		case got[0] != p[1]:
			return violated(epoch, 6, "ledger token %d (%d->%d) applied at wrong node %d", token, p[0], p[1], got[0])
		}
	}
	// Phantom sweep: the ledger may hold exactly the tokens ever sent. A
	// corrupted frame that slipped verification would apply a token value
	// nothing sent (or double-apply a real one — caught above).
	if n := r.rel.size(); n != int(r.relSeq) {
		return violated(epoch, 6, "delivery ledger holds %d tokens, want the %d ever sent — phantom application", n, r.relSeq)
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
	return nil
}

// checkCalls verifies invariant I3: every call whose path was touched by a
// failure is fully torn down with the caller notified; every untouched call
// is fully intact. Survivors are then torn down and the epoch must end with
// zero residual per-hop state anywhere. Every check reads the managers before
// the first teardown is injected: on the goroutine runtime a node handles an
// injection at once, writing the state a later check would read.
func (r *soakRun) checkCalls(epoch int, infos []callInfo) error {
	var survivors []callInfo
	for _, ci := range infos {
		touched := false
		for k := 0; k+1 < len(ci.path); k++ {
			if r.st.wasTouched(ci.path[k], ci.path[k+1]) {
				touched = true
				break
			}
		}
		status := r.node(ci.caller).mgr.Status(ci.id)
		if touched {
			if status != calls.StatusFailed {
				return violated(epoch, 3, "call %d crossed a failed link but caller %d reports %s, want failed", ci.id, ci.caller, status)
			}
			for _, v := range ci.path {
				if r.node(v).mgr.Holds(ci.id) {
					return violated(epoch, 3, "residual state for failed call %d at node %d", ci.id, v)
				}
			}
			r.res.CallsFailed++
			continue
		}
		if status != calls.StatusActive {
			return violated(epoch, 3, "untouched call %d reports %s at caller %d, want active", ci.id, status, ci.caller)
		}
		for _, v := range ci.path[1:] {
			if !r.node(v).mgr.Holds(ci.id) {
				return violated(epoch, 3, "untouched call %d lost its state at node %d", ci.id, v)
			}
		}
		survivors = append(survivors, ci)
	}
	for _, ci := range survivors {
		r.h.Inject(ci.caller, &calls.TeardownCmd{Call: ci.id})
		r.res.CallsTorn++
	}
	if err := r.h.Quiesce(); err != nil {
		return err
	}
	for v := 0; v < r.g.N(); v++ {
		if residual := r.node(core.NodeID(v)).mgr.Calls(); len(residual) != 0 {
			return violated(epoch, 3, "node %d still holds call state %v after teardown", v, residual)
		}
	}
	return nil
}

// componentElection is one run of the §4 election on the largest live
// component, described by what differs between the soak's three: I2's runs on
// election.Run's own fixed delays over clean links, I7's and I8's jittered —
// hardware delay up to 3 and software delay up to 2, drawn per hop — with a
// fault profile live for the whole election. The goroutine runtime has no
// delay model, its scheduler is the jitter; it takes the profile alone.
type componentElection struct {
	inv      int // the invariant the run checks: 2, 7 or 8
	starters []core.NodeID
	seed     int64
	jittered bool
	profile  core.MsgFaults
}

// electionNames is how the violations of each election invariant name the
// run that failed.
var electionNames = map[int]string{2: "", 7: "reordered ", 8: "gray "}

// elect runs e over sub — the largest live component, whose node i is the
// soak graph's ids[i] — and checks the outcome.
func (r *soakRun) elect(epoch int, sub *graph.Graph, ids []core.NodeID, e componentElection) (election.Result, error) {
	res, err := r.runElection(sub, e)
	return res, electionVerdict(epoch, e.inv, res, err, ids)
}

// runElection is the one place an election meets the configured runtime.
func (r *soakRun) runElection(sub *graph.Graph, e componentElection) (election.Result, error) {
	if r.cfg.Runtime == "gosim" {
		return election.RunAsync(sub, election.AlgoToken, e.starters, e.seed, r.cfg.Timeout,
			gosim.WithMsgFaults(e.profile))
	}
	opts := []sim.Option{sim.WithSeed(e.seed), sim.WithMsgFaults(e.profile)}
	if e.jittered {
		opts = append(opts, sim.WithDelays(3, 2), sim.WithRandomDelays())
	}
	return election.Run(sub, election.AlgoToken, e.starters, r.with(opts...)...)
}

// electionVerdict is what I2, I7 and I8 assert of an election over the
// component ids: the run completed, the §4 algorithm elected exactly one
// leader (election.Run validates that much) whose domain covers the whole
// component, and the tour cost respects Theorem 5's bound of 6n algorithm
// messages. A handler's failure names its node by soak ID, its time and cause.
func electionVerdict(epoch, inv int, res election.Result, err error, ids []core.NodeID) error {
	name, n := electionNames[inv], len(ids)
	if he := (*core.HandlerError)(nil); errors.As(err, &he) {
		err = &core.HandlerError{Node: ids[he.Node], Time: he.Time, Cause: he.Cause}
	}
	switch bound := int64(6 * n); {
	case err != nil:
		return violated(epoch, inv, "%sre-election on the largest component (%d nodes): %v", name, n, err)
	case res.LeaderDomain != n && name == "":
		return violated(epoch, inv, "leader %d has domain %d, want the whole component (%d)", ids[res.Leader], res.LeaderDomain, n)
	case res.LeaderDomain != n:
		return violated(epoch, inv, "%selection: leader %d has domain %d, want the whole component (%d)", name, ids[res.Leader], res.LeaderDomain, n)
	case res.AlgorithmMessages > bound:
		return violated(epoch, inv, "%selection used %d algorithm messages, above Theorem 5's bound %d", name, res.AlgorithmMessages, bound)
	}
	return nil
}

// checkElections runs the epoch's election invariants — I2, and I7 and I8
// when their fault dimension is configured — each on a network of its own
// over the largest live component.
func (r *soakRun) checkElections(epoch int) error {
	if r.cfg.NoElection {
		return nil
	}
	live, comp := r.st.largestComponent()
	if len(comp) < 2 {
		return nil // nothing to elect over
	}
	sub, ids := inducedSubgraph(live, comp)
	err := r.checkElection(epoch, sub, ids)
	if err == nil && r.cfg.Reorder > 0 {
		err = r.checkReorderElection(epoch, sub, ids)
	}
	if err == nil && r.cfg.gray() {
		err = r.checkGray(epoch, sub, ids)
	}
	return err
}

// checkElection verifies invariant I2 on the largest live component: the §4
// algorithm, started at one to three random nodes, elects exactly one leader,
// its domain covers the component, and the tour cost respects Theorem 5's 6n
// bound. With probability LeaderCrash the elected leader is crashed next
// epoch (and restored after Downtime).
func (r *soakRun) checkElection(epoch int, sub *graph.Graph, ids []core.NodeID) error {
	starters := make([]core.NodeID, 1+r.rng.Intn(min(3, len(ids))))
	perm := r.rng.Perm(len(ids))
	for i := range starters {
		starters[i] = core.NodeID(perm[i])
	}
	res, err := r.elect(epoch, sub, ids, componentElection{
		inv: 2, starters: starters, seed: r.cfg.Seed + int64(epoch) + 1,
	})
	if err != nil {
		return err
	}
	r.res.Elections++
	r.res.ReelectMsgs += res.AlgorithmMessages
	r.res.ReelectTime += res.Metrics.FinishTime
	r.res.ReelectMax = max(r.res.ReelectMax, res.Metrics.FinishTime)
	if r.cfg.LeaderCrash > 0 && r.rng.Float64() < r.cfg.LeaderCrash {
		leader := ids[res.Leader]
		r.pend[epoch+1] = append(r.pend[epoch+1], event{Step: 0, Kind: crash, U: leader})
		back := epoch + 1 + r.cfg.Downtime
		r.pend[back] = append(r.pend[back], event{Step: 0, Kind: restore, U: leader})
	}
	return nil
}

// checkReorderElection verifies invariant I7 on the largest live component:
// the §4 algorithm still elects exactly one leader owning the whole
// component when links violate FIFO — randomized hardware delays plus a
// reorder-only fault profile (loss would be a different invariant; the
// election assumes reliable-or-declared-down links). Every node starts,
// maximizing concurrent tours and thus reorder pressure. The run's recovery
// counters are accumulated so the soak line shows how often the stale-tree
// fallbacks actually fired.
func (r *soakRun) checkReorderElection(epoch int, sub *graph.Graph, ids []core.NodeID) error {
	res, err := r.elect(epoch, sub, ids, componentElection{
		inv: 7, starters: allOf(len(ids)), seed: r.cfg.Seed*1000003 + int64(epoch) + 7, jittered: true,
		profile: core.MsgFaults{Reorder: r.cfg.Reorder, ReorderWindow: core.Time(r.cfg.ReorderWindow)},
	})
	if err != nil {
		return err
	}
	r.res.ReorderElections++
	r.res.ReorderRecoveries += res.Stats.Recoveries.Load()
	return nil
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
func (r *soakRun) checkGray(epoch int, sub *graph.Graph, ids []core.NodeID) error {
	slowOnly := r.cfg.slowFaults()

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
	// The two runtimes run different experiments here, not two copies of one:
	// a beat is a period of virtual time on one, a quiescence barrier on the
	// other.
	if r.cfg.Runtime == "gosim" {
		// No time model: the quiescence barrier between beats stands in for
		// the probe period, and the leader stall is an activation-count
		// window of deschedules. The detector must stay unsuspicious while
		// the scheduler does its worst.
		net := gosim.New(sub, factory, gosim.WithSeed(seed), gosim.WithMsgFaults(slowOnly))
		if err := arm(net.PortMap()); err != nil {
			net.Shutdown()
			return err
		}
		for i := 1; i <= beats; i++ {
			if r.cfg.Stall > 0 && i == beats/2 {
				net.StallNode(leader, core.Time(2*sub.N()), core.Time(r.cfg.StallTicks))
			}
			for v := 0; v < sub.N(); v++ {
				if core.NodeID(v) != leader {
					net.Inject(core.NodeID(v), election.BeatTick{})
				}
			}
			if err := net.AwaitQuiescence(r.cfg.Timeout); err != nil {
				net.Shutdown()
				return fmt.Errorf("faults: gray detector scenario: %w", err)
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
			return err
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
				return fmt.Errorf("faults: gray detector scenario: %w", err)
			}
			net.StallNode(leader, 2*period, max(1, 2*period/core.Time(sub.N())))
		}
		if _, err := net.Run(); err != nil {
			return fmt.Errorf("faults: gray detector scenario: %w", err)
		}
	}
	var fooled violations
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
			fooled = append(fooled, violated(epoch, 8, "adaptive detector at node %d deposed the live-but-gray leader %d (phi=%.2f misses=%d lastAck=%d)",
				ids[u], ids[leader], st.Phi, st.Misses, st.LastAckTick)...)
		}
	}
	if len(fooled) > 0 {
		return fooled
	}

	// Phase 2: the gray election — only meaningful with slowdown in the
	// fabric (a stall-only config exercises the main election via I2).
	if r.cfg.Slow == 0 {
		return nil
	}
	profile := slowOnly
	if r.cfg.Reorder > 0 {
		profile.Reorder = r.cfg.Reorder
		profile.ReorderWindow = core.Time(r.cfg.ReorderWindow)
	}
	_, err := r.elect(epoch, sub, ids, componentElection{
		inv: 8, starters: allOf(len(ids)), seed: r.cfg.Seed*1000003 + int64(epoch) + 13, jittered: true,
		profile: profile,
	})
	if err != nil {
		return err
	}
	r.res.GrayElections++
	return nil
}

// allOf lists node IDs 0..n-1.
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
func (r *soakRun) checkProbes(epoch int, profile core.MsgFaults) error {
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
	down := r.st.downEdges()
	if len(down) > 64 {
		down = down[:64]
	}
	for _, e := range down {
		r.probeID++
		downProbes = append(downProbes, probe{id: r.probeID, e: e, want: false})
	}
	up := r.st.upEdges()
	for i := 0; i < 16 && len(up) > 0; i++ {
		j := r.rng.Intn(len(up))
		e := up[j]
		up = append(up[:j], up[j+1:]...)
		r.probeID++
		upProbes = append(upProbes, probe{id: r.probeID, e: e, want: true})
	}
	r.h.SetMsgFaults(profile)
	if err := send(downProbes); err != nil {
		return err
	}
	r.h.SetMsgFaults(core.MsgFaults{})
	if err := send(upProbes); err != nil {
		return err
	}
	for _, p := range append(downProbes, upProbes...) {
		got := r.book.sawEcho(p.id)
		if got && !p.want {
			return violated(epoch, 4, "packet crossed down link %d-%d", p.e.U, p.e.V)
		}
		if !got && p.want {
			return violated(epoch, 4, "up link %d-%d dropped a packet", p.e.U, p.e.V)
		}
	}
	return nil
}
