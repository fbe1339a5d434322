package reliable

import (
	"math/rand"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// fakeEnv satisfies the slice of core.Env the endpoint touches (Send, Rand);
// everything else panics so a test that strays is loud about it.
type fakeEnv struct {
	core.Env
	rng   *rand.Rand
	sends int
}

func (f *fakeEnv) Send(anr.Header, any) error { return nil }
func (f *fakeEnv) Rand() *rand.Rand           { return f.rng }

func newFakeEnv(seed int64) *fakeEnv { return &fakeEnv{rng: rand.New(rand.NewSource(seed))} }

// ackFor builds the well-formed ack retiring seq at sender e.
func ackFor(e *Endpoint, dst core.NodeID, seq uint64) *ack {
	return &ack{Src: dst, Dst: e.id, Seq: seq, Sum: ackSum(dst, e.id, seq)}
}

func TestRTTStateJacobsonFixedPoint(t *testing.T) {
	var st rttState
	st.observe(8)
	// First sample: SRTT = sample, RTTVAR = sample/2 → RTO = 8 + 16 = 24.
	if st.srtt8 != 64 || st.rttvar4 != 16 {
		t.Fatalf("first sample: srtt8=%d rttvar4=%d", st.srtt8, st.rttvar4)
	}
	if got := st.rto(); got != 24 {
		t.Fatalf("first RTO = %d, want 24", got)
	}
	// A long run of identical samples decays the variance toward its
	// fixed-point residue (rttvar4 sticks at 3: 3>>2 == 0) and the RTO
	// toward SRTT plus that residue.
	for i := 0; i < 64; i++ {
		st.observe(8)
	}
	if got := st.srtt8 >> 3; got != 8 {
		t.Fatalf("steady SRTT = %d, want 8", got)
	}
	if got := st.rto(); got != 11 {
		t.Fatalf("steady RTO = %d, want 11 (SRTT + variance residue)", got)
	}
	// A sudden slowdown reopens the variance before SRTT catches up.
	before := st.rto()
	st.observe(40)
	if st.rto() <= before {
		t.Fatalf("RTO did not grow on a 5x RTT spike: %d -> %d", before, st.rto())
	}
}

// TestAdaptiveRTOTracksDestination drives a full sender-side cycle per ack
// and checks the first-attempt timeout converges to the observed RTT rather
// than the configured floor.
func TestAdaptiveRTOTracksDestination(t *testing.T) {
	env := newFakeEnv(1)
	e := NewEndpoint(0, Config{RTO: 1, MaxBackoff: 64, Adaptive: true, MaxRTO: 32})
	dst := core.NodeID(1)
	route := anr.Direct([]anr.ID{1})
	const rtt = 6
	for i := 0; i < 40; i++ {
		if err := e.SendRoute(env, dst, route, i); err != nil {
			t.Fatal(err)
		}
		seq := e.nextSeq[dst]
		for k := 0; k < rtt; k++ {
			e.tick(env)
		}
		e.onAck(ackFor(e, dst, seq))
	}
	st, ok := e.RTT(dst)
	if !ok {
		t.Fatal("no RTT samples accepted")
	}
	if st.SRTT < 5 || st.SRTT > 7 {
		t.Fatalf("SRTT = %g, want ~6", st.SRTT)
	}
	if got := e.rtoFor(dst); got < rtt || got > rtt+4 {
		t.Fatalf("adaptive RTO = %d, want a little above the true RTT %d", got, rtt)
	}
	// Note: with RTO=1 and a 6-tick RTT, the FIXED config would retransmit
	// ~5 times per frame; the adaptive sender should no longer retransmit
	// once converged. The early probes (first ~2 frames, pre-convergence)
	// may retransmit — after that, silence.
	if e.stats.Retransmits > 30 {
		t.Fatalf("adaptive sender kept retransmitting after convergence: %d", e.stats.Retransmits)
	}
}

// TestKarnRuleExcludesRetransmitted: a frame that was retransmitted must not
// contribute an RTT sample, no matter how plausible its ack looks.
func TestKarnRuleExcludesRetransmitted(t *testing.T) {
	env := newFakeEnv(1)
	e := NewEndpoint(0, Config{RTO: 1, Adaptive: true})
	dst := core.NodeID(1)
	route := anr.Direct([]anr.ID{1})
	if err := e.SendRoute(env, dst, route, "x"); err != nil {
		t.Fatal(err)
	}
	seq := e.nextSeq[dst]
	// tick far past the timeout so the frame retransmits at least once.
	for k := 0; k < 8; k++ {
		e.tick(env)
	}
	if e.stats.Retransmits == 0 {
		t.Fatal("frame never retransmitted; the test premise is broken")
	}
	e.onAck(ackFor(e, dst, seq))
	if e.stats.Acked != 1 {
		t.Fatalf("ack not consumed: %+v", e.stats)
	}
	if _, ok := e.RTT(dst); ok {
		t.Fatal("Karn's rule violated: retransmitted frame produced an RTT sample")
	}
	// A clean (first-attempt) ack afterwards is sampled as usual.
	if err := e.SendRoute(env, dst, route, "y"); err != nil {
		t.Fatal(err)
	}
	e.onAck(ackFor(e, dst, e.nextSeq[dst]))
	if st, ok := e.RTT(dst); !ok || st.Samples != 1 {
		t.Fatalf("clean ack not sampled: %+v ok=%v", st, ok)
	}
}

// TestAdaptiveRTOClamps: the estimator's output is clamped to [MinRTO, MaxRTO].
func TestAdaptiveRTOClamps(t *testing.T) {
	env := newFakeEnv(1)
	e := NewEndpoint(0, Config{RTO: 1, Adaptive: true, MinRTO: 4, MaxRTO: 10})
	dst := core.NodeID(1)
	route := anr.Direct([]anr.ID{1})
	// Instant acks: raw estimate would be ~1 tick; MinRTO must floor it.
	for i := 0; i < 10; i++ {
		if err := e.SendRoute(env, dst, route, i); err != nil {
			t.Fatal(err)
		}
		e.onAck(ackFor(e, dst, e.nextSeq[dst]))
	}
	if got := e.rtoFor(dst); got != 4 {
		t.Fatalf("RTO = %d, want MinRTO clamp 4", got)
	}
	// A glacial destination: raw estimate far above MaxRTO must be capped.
	slow := core.NodeID(2)
	for i := 0; i < 10; i++ {
		if err := e.SendRoute(env, slow, route, i); err != nil {
			t.Fatal(err)
		}
		seq := e.nextSeq[slow]
		p := e.pend[slow][seq]
		p.nextAt = 1 << 40 // hold off retransmission; this test times the ack only
		for k := 0; k < 50; k++ {
			e.tick(env)
		}
		e.onAck(ackFor(e, slow, seq))
	}
	if got := e.rtoFor(slow); got != 10 {
		t.Fatalf("RTO = %d, want MaxRTO clamp 10", got)
	}
}

// TestZeroValueConfigUnchanged: without Adaptive, rtoFor is the fixed RTO and
// acks leave no estimator state behind — the pre-gray behavior, exactly.
func TestZeroValueConfigUnchanged(t *testing.T) {
	env := newFakeEnv(1)
	e := NewEndpoint(0, Config{RTO: 3})
	dst := core.NodeID(1)
	route := anr.Direct([]anr.ID{1})
	for i := 0; i < 5; i++ {
		if err := e.SendRoute(env, dst, route, i); err != nil {
			t.Fatal(err)
		}
		e.tick(env)
		e.onAck(ackFor(e, dst, e.nextSeq[dst]))
	}
	if got := e.rtoFor(dst); got != 3 {
		t.Fatalf("fixed RTO drifted: %d", got)
	}
	if len(e.rtt) != 0 {
		t.Fatalf("non-adaptive endpoint grew estimator state: %v", e.rtt)
	}
	if _, ok := e.RTT(dst); ok {
		t.Fatal("RTT reported samples on a non-adaptive endpoint")
	}
}

// TestRetransmitJitterScalesWithBackoff pins the herd fix: after the backoff
// has doubled a few times, the gap between successive retransmissions must
// spread across the grown interval, not cluster within RTO of its start.
func TestRetransmitJitterScalesWithBackoff(t *testing.T) {
	const (
		rto    = 2
		trials = 40
	)
	spread := make(map[int64]bool)
	for trial := 0; trial < trials; trial++ {
		env := newFakeEnv(int64(trial) + 1)
		e := NewEndpoint(0, Config{RTO: rto, MaxBackoff: 64})
		if err := e.SendRoute(env, 1, anr.Direct([]anr.ID{1}), "x"); err != nil {
			t.Fatal(err)
		}
		p := e.pend[1][1]
		// March to the third retransmission: backoff is 16 by then.
		for p.attempt < 4 {
			e.tick(env)
		}
		if p.backoff != 32 {
			t.Fatalf("backoff after 3 retransmissions = %d, want 32", p.backoff)
		}
		// nextAt was scheduled from the 16-tick interval: the jitter term
		// must range over [0,16], not [0,RTO].
		slack := p.nextAt - e.ticks - 16
		if slack < 0 || slack > 16 {
			t.Fatalf("jitter slack %d outside the current interval [0,16]", slack)
		}
		spread[slack] = true
	}
	// With jitter ~Uniform[0,16] across 40 trials we must see draws beyond
	// the old fixed [0,RTO]=[0,2] range.
	beyond := 0
	for s := range spread {
		if s > rto {
			beyond++
		}
	}
	if beyond == 0 {
		t.Fatalf("all jitter draws within [0,%d]; still using the initial RTO: %v", rto, spread)
	}
}

// TestSlowFlagsGrayDestination: the per-destination estimators Endpoint.RTT
// exposes (what E23 reads) order a gray destination's smoothed RTT more than
// twice above the endpoint's fastest peer, keep healthy peers within that
// factor, and report nothing for a destination without samples.
func TestSlowFlagsGrayDestination(t *testing.T) {
	env := newFakeEnv(1)
	e := NewEndpoint(0, Config{RTO: 1, Adaptive: true, MaxRTO: 100})
	route := anr.Direct([]anr.ID{1})
	drive := func(dst core.NodeID, rtt int) RTTStats {
		for i := 0; i < 8; i++ {
			if err := e.SendRoute(env, dst, route, i); err != nil {
				t.Fatal(err)
			}
			seq := e.nextSeq[dst]
			e.pend[dst][seq].nextAt = 1 << 40
			for k := 0; k < rtt; k++ {
				e.tick(env)
			}
			e.onAck(ackFor(e, dst, seq))
		}
		st, ok := e.RTT(dst)
		if !ok || st.Samples != 8 {
			t.Fatalf("node %d: %d samples (ok=%v), want 8", dst, st.Samples, ok)
		}
		return st
	}
	healthy := drive(1, 2)
	behind := drive(2, 3) // a bit behind, within factor 2
	gray := drive(3, 9)   // gray: >4x the fastest
	if behind.SRTT > 2*healthy.SRTT {
		t.Fatalf("healthy destinations more than 2x apart: %+v vs %+v", behind, healthy)
	}
	if gray.SRTT <= 2*healthy.SRTT || gray.RTO <= behind.RTO {
		t.Fatalf("gray destination not ordered behind the healthy ones: %+v vs %+v, %+v", gray, healthy, behind)
	}
	if st, ok := e.RTT(4); ok {
		t.Fatalf("sample-less destination reported %+v", st)
	}
}
