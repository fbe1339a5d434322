package election

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// captureSpy is a node's Protocol with a tap on what it sends: when its own
// capture data leaves, it keeps a copy of the domain the message points to.
// A node is captured at most once, so one copy per node is all there is.
type captureSpy struct {
	*Protocol
	shipped      []member
	nIn, nOut    int
	shippedTwice bool
}

func (s *captureSpy) Deliver(env core.Env, pkt core.Packet) {
	s.Protocol.Deliver(spyEnv{Env: env, spy: s}, pkt)
}

type spyEnv struct {
	core.Env
	spy *captureSpy
}

func (e spyEnv) Send(h anr.Header, payload any) error {
	e.spy.observe(payload)
	return e.Env.Send(h, payload)
}

func (e spyEnv) Multicast(hs []anr.Header, payload any) error {
	e.spy.observe(payload)
	return e.Env.Multicast(hs, payload)
}

func (s *captureSpy) observe(payload any) {
	if f, ok := payload.(*floodMsg); ok {
		payload = f.Inner
	}
	m, ok := payload.(*returnMsg)
	if !ok || m.Capture.Dom != &s.dom {
		return // not a capture, or a flood relay of somebody else's
	}
	s.shippedTwice = s.shipped != nil
	s.shipped, s.nIn, s.nOut = slices.Clone(s.dom.ents), s.dom.nIn, s.dom.nOut
}

// checkFrozen requires every captured origin's domain to be, member for
// member, what it shipped, and the winner to hold the whole graph.
func checkFrozen(t *testing.T, g *graph.Graph, stats *Stats, spyOf func(core.NodeID) *captureSpy) {
	t.Helper()
	n := g.N()
	if _, err := validate(g, func(u core.NodeID) State { return spyOf(u).State() }); err != nil {
		t.Fatal(err)
	}
	captured := 0
	for u := core.NodeID(0); int(u) < n; u++ {
		s := spyOf(u)
		if s.shippedTwice {
			t.Fatalf("node %d shipped its domain twice", u)
		}
		if s.shipped == nil {
			continue
		}
		captured++
		if !slices.Equal(s.dom.ents, s.shipped) || s.dom.nIn != s.nIn || s.dom.nOut != s.nOut {
			t.Fatalf("node %d: domain written after capture:\n now     %v (|IN| %d, |OUT| %d)\n shipped %v (|IN| %d, |OUT| %d)",
				u, s.dom.ents, s.dom.nIn, s.dom.nOut, s.shipped, s.nIn, s.nOut)
		}
	}
	if int64(captured) != stats.Captures.Load() || captured != n-1 {
		t.Fatalf("%d domains shipped, %d captures counted, want %d", captured, stats.Captures.Load(), n-1)
	}
}

// TestCaptureSharesFrozenDomain backs the zero-copy capture: a captured
// origin hands its capturer a pointer to its own domain and goes on reading
// it for return routes, so nothing may write it afterwards — neither side,
// on either runtime. Under -race the goroutine runtime also proves the
// shared reads need no lock.
func TestCaptureSharesFrozenDomain(t *testing.T) {
	t.Run("des", func(t *testing.T) {
		const n = 256
		g := graph.GNP(n, 4.0/n, 11)
		stats := &Stats{}
		net := sim.New(g, func(id core.NodeID) core.Protocol { return &captureSpy{Protocol: New(id, stats)} },
			sim.WithDelays(0, 1), sim.WithDmax(Dmax(n)))
		for u := 0; u < n; u++ {
			net.Inject(0, core.NodeID(u), Start{})
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		checkFrozen(t, g, stats, func(u core.NodeID) *captureSpy { return net.Protocol(u).(*captureSpy) })
	})
	t.Run("des-reordered", func(t *testing.T) {
		// TestReorderRepro's run: capture data overtaken by a chased token,
		// so domains are also shared through degraded merges and captures
		// that go home over the flood transport.
		const seed = 0x19d04439f8b8e55
		g := graph.GNP(20, 0.2, seed)
		stats := &Stats{}
		net := sim.New(g, func(id core.NodeID) core.Protocol { return &captureSpy{Protocol: New(id, stats)} },
			sim.WithDelays(7, 8), sim.WithRandomDelays(), sim.WithSeed(seed), sim.WithDmax(Dmax(g.N())))
		for u := 0; u < g.N(); u++ {
			net.Inject(0, core.NodeID(u), Start{})
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if stats.Recoveries.Load() == 0 {
			t.Fatal("the run no longer reaches the recovery path; re-pin the seed")
		}
		checkFrozen(t, g, stats, func(u core.NodeID) *captureSpy { return net.Protocol(u).(*captureSpy) })
	})
	t.Run("gosim", func(t *testing.T) {
		if testing.Short() {
			t.Skip("async runs skipped in -short mode")
		}
		// Reordered, not duplicated: the §4 protocol assumes exactly-once
		// links (a duplicated return is an "unexpected comeback"), which is
		// why the soak runs its elections under the reorder profile only.
		profile := core.MsgFaults{Reorder: 0.25, ReorderWindow: 40}
		for seed := int64(1); seed <= 6; seed++ {
			const n = 48
			g := graph.GNP(n, 0.1, seed)
			stats := &Stats{}
			net := gosim.New(g, func(id core.NodeID) core.Protocol { return &captureSpy{Protocol: New(id, stats)} },
				gosim.WithSeed(seed), gosim.WithDmax(Dmax(n)), gosim.WithMsgFaults(profile))
			for u := 0; u < n; u++ {
				net.Inject(core.NodeID(u), Start{})
			}
			err := net.AwaitQuiescence(30 * time.Second)
			net.Shutdown()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkFrozen(t, g, stats, func(u core.NodeID) *captureSpy { return net.Protocol(u).(*captureSpy) })
		}
	})
}

// TestBadStarter: a starter that is not a node of the graph is refused with
// a named error on both runtimes (it used to index the node table and
// panic).
func TestBadStarter(t *testing.T) {
	g := graph.Ring(8)
	for _, s := range []core.NodeID{100, 8, -1} {
		if _, err := Run(g, AlgoToken, []core.NodeID{0, s}); !errors.Is(err, ErrBadStarter) {
			t.Fatalf("Run with starter %d: %v, want ErrBadStarter", s, err)
		}
		if _, err := RunAsync(g, AlgoToken, []core.NodeID{0, s}, 1, time.Second); !errors.Is(err, ErrBadStarter) {
			t.Fatalf("RunAsync with starter %d: %v, want ErrBadStarter", s, err)
		}
	}
	if _, err := Run(g, AlgoToken, []core.NodeID{0, 7}); err != nil {
		t.Fatalf("starters at both ends of the range: %v", err)
	}
}

// TestBaselinesRefuseForeignGraphs: Hirschberg-Sinclair is defined on rings
// and the all-pairs exchange on complete graphs; anywhere else the one loops
// to the event budget and the other "elects" whoever its neighbours happen to
// name. Both runtimes refuse such a run before building a network; the
// paper's algorithm runs on every connected graph.
func TestBaselinesRefuseForeignGraphs(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		defined map[Algorithm]bool
	}{
		{"ring", graph.Ring(n), map[Algorithm]bool{AlgoToken: true, AlgoHS: true}},
		{"path", graph.Path(n), map[Algorithm]bool{AlgoToken: true}},
		{"star", graph.Star(n), map[Algorithm]bool{AlgoToken: true}},
		{"gnp", graph.GNP(n, 0.5, 3), map[Algorithm]bool{AlgoToken: true}},
		{"complete", graph.Complete(n), map[Algorithm]bool{AlgoToken: true, AlgoNaive: true}},
		{"triangle", graph.Complete(3), map[Algorithm]bool{AlgoToken: true, AlgoHS: true, AlgoNaive: true}},
	} {
		for _, algo := range []Algorithm{AlgoToken, AlgoHS, AlgoNaive} {
			starters := allNodes(tc.g.N())
			_, errSim := Run(tc.g, algo, starters)
			_, errGo := RunAsync(tc.g, algo, starters, 1, 10*time.Second)
			for rt, err := range map[string]error{"sim": errSim, "gosim": errGo} {
				if tc.defined[algo] && err != nil {
					t.Errorf("%s on %s (%s): %v", algo, tc.name, rt, err)
				}
				if !tc.defined[algo] && (!errors.Is(err, ErrUndefined) || !strings.Contains(err.Error(), algo.String())) {
					t.Errorf("%s on %s (%s): %v, want ErrUndefined naming the algorithm", algo, tc.name, rt, err)
				}
			}
		}
	}
}
