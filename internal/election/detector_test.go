package election

import (
	"math"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

func detNet(t *testing.T, n int, opts ...sim.Option) (*sim.Network, func(core.NodeID) *Detector) {
	t.Helper()
	base := []sim.Option{sim.WithDelays(1, 1), sim.WithDmax(n)}
	net := sim.New(graph.Path(n), func(id core.NodeID) core.Protocol {
		return &DetectorNode{D: newDetector(id, 3)}
	}, append(base, opts...)...)
	return net, func(u core.NodeID) *Detector { return net.Protocol(u).(*DetectorNode).D }
}

func armPath(t *testing.T, net *sim.Network, det func(core.NodeID) *Detector, prober, leader core.NodeID) {
	t.Helper()
	path := []core.NodeID{}
	for u := prober; ; u++ {
		path = append(path, u)
		if u == leader {
			break
		}
	}
	links, err := net.PortMap().RouteLinks(path)
	if err != nil {
		t.Fatal(err)
	}
	det(prober).SetLeader(leader, anr.Direct(links))
	det(leader).SetLeader(leader, nil)
}

func beat(t *testing.T, net *sim.Network, prober core.NodeID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		net.Inject(net.Now()+1, prober, BeatTick{})
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDetectorNoFalsePositive: on a fault-free network a live leader is never
// suspected, however long the detector runs.
func TestDetectorNoFalsePositive(t *testing.T) {
	net, det := detNet(t, 3)
	armPath(t, net, det, 0, 2)
	beat(t, net, 0, 25)
	if det(0).suspected {
		t.Fatal("live leader suspected on a fault-free network")
	}
	if det(0).misses != 0 {
		t.Fatalf("misses = %d, want 0", det(0).misses)
	}
}

// TestDetectorSuspectsCrashedLeader: when the leader's links die, probes go
// unanswered and suspicion is raised after Threshold periods.
func TestDetectorSuspectsCrashedLeader(t *testing.T) {
	net, det := detNet(t, 3)
	armPath(t, net, det, 0, 2)
	beat(t, net, 0, 5)
	net.CrashNode(net.Now()+1, 2)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	beat(t, net, 0, 5)
	if !det(0).suspected {
		t.Fatal("crashed leader never suspected")
	}
}

// TestDetectorSuspicionIsSticky: once raised, suspicion survives the leader
// coming back; only SetLeader re-arms.
func TestDetectorSuspicionIsSticky(t *testing.T) {
	net, det := detNet(t, 3)
	armPath(t, net, det, 0, 2)
	net.CrashNode(0, 2)
	beat(t, net, 0, 6)
	if !det(0).suspected {
		t.Fatal("crashed leader never suspected")
	}
	net.RestoreNode(net.Now()+1, 2)
	beat(t, net, 0, 6)
	if !det(0).suspected {
		t.Fatal("suspicion must be sticky across leader recovery")
	}
	armPath(t, net, det, 0, 2)
	beat(t, net, 0, 6)
	if det(0).suspected {
		t.Fatal("re-armed detector must trust the recovered leader again")
	}
}

// TestDetectorLossDelaysButConverges: under heavy loss the detector may need
// extra periods, but a crashed leader is still eventually suspected — and a
// corrupted ack can never count as a heartbeat (beatAck is not Corruptible,
// so corruption garbles it).
func TestDetectorLossDelaysButConverges(t *testing.T) {
	net, det := detNet(t, 3, sim.WithSeed(4))
	armPath(t, net, det, 0, 2)
	net.SetMsgFaults(core.MsgFaults{Drop: 0.4, Corrupt: 0.3})
	net.CrashNode(0, 2)
	beat(t, net, 0, 40)
	if !det(0).suspected {
		t.Fatal("crashed leader never suspected under loss")
	}
}

// TestDetectorGosim: the detector behaves on the goroutine runtime too.
func TestDetectorGosim(t *testing.T) {
	g := graph.Path(3)
	dets := make([]*Detector, 3)
	net := gosim.New(g, func(id core.NodeID) core.Protocol {
		dets[id] = newDetector(id, 3)
		return &DetectorNode{D: dets[id]}
	})
	defer net.Shutdown()
	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	dets[0].SetLeader(2, anr.Direct(links))
	dets[2].SetLeader(2, nil)
	tick := func(n int) {
		for i := 0; i < n; i++ {
			net.Inject(0, BeatTick{})
			if err := net.AwaitQuiescence(5 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	tick(10)
	if dets[0].suspected {
		t.Fatal("live leader suspected")
	}
	net.InjectLink(1, 2, false)
	if err := net.AwaitQuiescence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	tick(6)
	if !dets[0].suspected {
		t.Fatal("leader behind a dead link never suspected")
	}
}

// slowNet builds a Path(3) network whose probe round trip (~22 time with
// fixed 3+2 per-hop delays over two hops each way) spans several beat
// periods of 6 — the gray regime: the leader is alive and answering, just
// never inside the period that asked.
func slowNet(adaptive bool) (*sim.Network, []*Detector, error) {
	dets := make([]*Detector, 3)
	net := sim.New(graph.Path(3), func(id core.NodeID) core.Protocol {
		if adaptive {
			dets[id] = NewAdaptiveDetector(id, 3)
		} else {
			dets[id] = newDetector(id, 3)
		}
		return &DetectorNode{D: dets[id]}
	}, sim.WithDelays(3, 2), sim.WithDmax(3))
	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1, 2})
	if err != nil {
		return nil, nil, err
	}
	dets[0].SetLeader(2, anr.Direct(links))
	dets[2].SetLeader(2, nil)
	return net, dets, nil
}

// TestAdaptiveDetectorSurvivesSlowLeader is the phi-accrual headline: on the
// same slow-but-alive topology, the fixed-miss detector deposes the leader
// within its miss budget while the adaptive one learns the stretched ack
// inter-arrival distribution and stays calm for the whole run.
func TestAdaptiveDetectorSurvivesSlowLeader(t *testing.T) {
	const period = 6
	for _, adaptive := range []bool{false, true} {
		net, dets, err := slowNet(adaptive)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 30; i++ {
			net.Inject(core.Time(i*period), 0, BeatTick{})
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if adaptive && dets[0].suspected {
			t.Fatalf("adaptive detector deposed a live-but-slow leader: %+v", dets[0].Stats())
		}
		if !adaptive && !dets[0].suspected {
			t.Fatal("fixed-miss detector tolerated an RTT above its whole miss budget; the slow regime is not slow enough to mean anything")
		}
		if st := dets[0].Stats(); adaptive && st.LastAckTick == 0 {
			t.Fatalf("no ack evidence ever arrived; the scenario is vacuous: %+v", st)
		}
	}
}

// TestAdaptiveDetectorSuspectsDeadLeader: adaptivity must not cost the
// one-sided guarantee — a crashed leader's phi grows without bound and is
// still suspected.
func TestAdaptiveDetectorSuspectsDeadLeader(t *testing.T) {
	const period = 6
	net, dets, err := slowNet(true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		net.Inject(core.Time(i*period), 0, BeatTick{})
	}
	net.CrashNode(15*period, 2)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if !dets[0].suspected {
		t.Fatalf("dead leader never suspected by the adaptive detector: %+v", dets[0].Stats())
	}
}

// TestAdaptiveDetectorSurvivesLeaderStall: a GC-style NCU stall of the
// leader delays acks by a couple of periods — exactly the silence a fixed
// miss budget of 3 cannot absorb — and the adaptive detector must ride it
// out, then still function (a later crash is detected).
func TestAdaptiveDetectorSurvivesLeaderStall(t *testing.T) {
	const period = 6
	net, dets, err := slowNet(true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		net.Inject(core.Time(i*period), 0, BeatTick{})
	}
	if _, err := net.RunUntil(15 * period); err != nil {
		t.Fatal(err)
	}
	net.StallNode(2, 2*period, 2*period)
	if _, err := net.RunUntil(30 * period); err != nil {
		t.Fatal(err)
	}
	if dets[0].suspected {
		t.Fatalf("adaptive detector deposed a stalled-but-alive leader: %+v", dets[0].Stats())
	}
	net.CrashNode(net.Now()+1, 2)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if !dets[0].suspected {
		t.Fatalf("leader crash after the stall went undetected: %+v", dets[0].Stats())
	}
	if net.Metrics().StallTicks == 0 {
		t.Fatal("the stall never inflated a software delay; the scenario is vacuous")
	}
}

// TestDetectorStatsSnapshot pins the Stats observability surface without a
// network: the snapshot mirrors the internal estimator exactly.
func TestDetectorStatsSnapshot(t *testing.T) {
	d := NewAdaptiveDetector(1, 0)
	if d.PhiThreshold != 3 {
		t.Fatalf("default phi threshold = %g, want 3", d.PhiThreshold)
	}
	d.SetLeader(2, nil)
	d.ticksSeen = 10
	d.seq = 1
	d.handle(nil, core.Packet{Payload: &beatAck{From: 2, Seq: 1}})
	st := d.Stats()
	if st.Leader != 2 || st.LastAckTick != 10 || st.MeanGap != 10 || st.Phi != 0 {
		t.Fatalf("snapshot after first ack: %+v", st)
	}
	d.ticksSeen = 15
	want := 5 / (10 * math.Ln10)
	if st = d.Stats(); math.Abs(st.Phi-want) > 1e-12 {
		t.Fatalf("phi = %g, want %g", st.Phi, want)
	}
	// Re-arming resets the estimator and the snapshot shows it.
	d.suspected = true
	d.SetLeader(2, nil)
	if st = d.Stats(); st.Suspected || st.Phi != 0 || st.MeanGap != 0 || st.LastAckTick != 0 {
		t.Fatalf("snapshot after re-arm: %+v", st)
	}
}
