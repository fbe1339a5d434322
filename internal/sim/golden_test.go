package sim_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden hashes from the current implementation")

// engine is what a scenario needs of the runtime under it: production
// (*sim.Network) or the naive reference engine (*sim.Reference,
// reference_test.go). Scenarios take the constructor, so a differential runs
// one scenario body on both.
type engine interface {
	PortMap() *core.PortMap
	Protocol(core.NodeID) core.Protocol
	Inject(t core.Time, v core.NodeID, payload any)
	SetLink(t core.Time, u, v core.NodeID, up bool)
	Run() (core.Time, error)
	Metrics() core.Metrics
	DeliveriesPerNode() []int64
	BusyTimePerNode() []core.Time
	SchedStats() sim.SchedStats
}

type newEngine func(*graph.Graph, core.Factory, ...sim.Option) engine

func production(g *graph.Graph, f core.Factory, opts ...sim.Option) engine {
	return sim.New(g, f, opts...)
}

func reference(g *graph.Graph, f core.Factory, opts ...sim.Option) engine {
	return sim.NewReference(g, f, opts...)
}

// hashRun renders every observable output of a finished run — the full trace
// stream, the metrics line, the finish time, and the per-node delivery and
// busy-time vectors — into one canonical byte stream and hashes it. Any
// change to event ordering, rng draw sequences, or counters changes the hash.
func hashRun(buf interface{ Events() []trace.Event }, net engine, finish core.Time) string {
	h := sha256.New()
	for _, e := range buf.Events() {
		fmt.Fprintf(h, "%d %d %d %d %d %s\n", e.Kind, e.Time, e.Node, e.Act, e.Msg, e.Cause)
	}
	fmt.Fprintf(h, "metrics %s\n", net.Metrics())
	fmt.Fprintf(h, "finish %d\n", finish)
	fmt.Fprintf(h, "deliveries %v\n", net.DeliveriesPerNode())
	fmt.Fprintf(h, "busy %v\n", net.BusyTimePerNode())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenScenarios pin one run per distinct event-core code path: exact and
// randomized delays (node rng + network rng), the lossy-link model (fault
// rng, duplication, corruption, jitter), link flips mid-run (link events,
// drops on down links), and a multi-starter election (protocol rng, header
// reverse-path accumulation). Together they cover every rng stream and every
// event kind the scheduler handles.
func goldenScenarios() map[string]func(t *testing.T, mk newEngine, extra ...sim.Option) string {
	return map[string]func(t *testing.T, mk newEngine, extra ...sim.Option) string{
		"broadcast-tree-exact": func(t *testing.T, mk newEngine, extra ...sim.Option) string {
			g := graph.RandomTree(64, 3)
			buf := trace.NewSerial(0)
			net := mk(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
				append([]sim.Option{sim.WithDelays(0, 1), sim.WithDmax(g.N()), sim.WithTrace(buf)}, extra...)...)
			recs := topology.RecordsForGraph(g, net.PortMap(), nil)
			net.Protocol(0).(topology.Maintainer).Preload(recs)
			net.Inject(0, 0, topology.Trigger{})
			finish, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(buf, net, finish)
		},
		"flood-random-delays": func(t *testing.T, mk newEngine, extra ...sim.Option) string {
			g := graph.GNP(48, 0.12, 7)
			buf := trace.NewSerial(0)
			net := mk(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
				append([]sim.Option{sim.WithDelays(3, 2), sim.WithRandomDelays(), sim.WithSeed(42),
					sim.WithDmax(g.N()), sim.WithTrace(buf)}, extra...)...)
			for u := 0; u < g.N(); u++ {
				net.Inject(0, core.NodeID(u), topology.Trigger{})
			}
			finish, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(buf, net, finish)
		},
		"lossy-flaps": func(t *testing.T, mk newEngine, extra ...sim.Option) string {
			g := graph.GNP(40, 0.12, 9)
			buf := trace.NewSerial(0)
			net := mk(g, topology.NewMaintainer(topology.ModeFlood, true, nil),
				append([]sim.Option{sim.WithDelays(2, 3), sim.WithRandomDelays(), sim.WithSeed(13),
					sim.WithDmax(g.N()), sim.WithTrace(buf),
					sim.WithMsgFaults(core.MsgFaults{Drop: 0.05, Dup: 0.05, Corrupt: 0.03, Jitter: 0.1, JitterMax: 3})}, extra...)...)
			edges := g.Edges()
			net.SetLink(1, edges[0].U, edges[0].V, false)
			net.SetLink(40, edges[0].U, edges[0].V, true)
			net.SetLink(25, edges[1].U, edges[1].V, false)
			for u := 0; u < g.N(); u++ {
				net.Inject(core.Time(u%5), core.NodeID(u), topology.Trigger{})
			}
			finish, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(buf, net, finish)
		},
		"election-random-delays": func(t *testing.T, mk newEngine, extra ...sim.Option) string {
			g := graph.GNP(32, 0.15, 5)
			buf := trace.NewSerial(0)
			stats := &election.Stats{}
			net := mk(g, func(id core.NodeID) core.Protocol {
				return election.New(id, stats)
			}, append([]sim.Option{sim.WithDelays(2, 3), sim.WithRandomDelays(), sim.WithSeed(11),
				sim.WithDmax(election.Dmax(g.N())), sim.WithTrace(buf)}, extra...)...)
			for u := 0; u < g.N(); u++ {
				net.Inject(0, core.NodeID(u), election.Start{})
			}
			finish, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(buf, net, finish)
		},
	}
}

// TestGoldenHashes is the determinism contract of the event core: for pinned
// seeds, the full observable output of the simulator (trace stream, metrics,
// per-node vectors) must stay byte-identical across refactors. Regenerate
// with -update-golden only for a change that intentionally alters simulation
// semantics — never for a pure performance refactor. Two generations so far:
// the originals came from the pre-overhaul closure-based scheduler and pinned
// the event-core rewrite as byte-identical; the C = 0 scenario was re-pinned
// once when cut-through switching intentionally changed the same-instant
// dispatch discipline to depth-first (the C > 0 scenarios kept their hashes,
// proving the time-advancing path untouched — see docs/PERF.md for the
// equivalence evidence that gated the re-pin).
func TestGoldenHashes(t *testing.T) {
	path := filepath.Join("testdata", "golden_hashes.json")
	golden := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
	} else if !*updateGolden {
		t.Fatalf("missing %s (run with -update-golden to create)", path)
	}
	got := map[string]string{}
	for name, run := range goldenScenarios() {
		got[name] = run(t, production)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	for name, want := range golden {
		if got[name] == "" {
			t.Errorf("golden scenario %q no longer exists", name)
			continue
		}
		if got[name] != want {
			t.Errorf("scenario %q: output diverged from golden\n got %s\nwant %s", name, got[name], want)
		}
	}
	for name := range got {
		if _, ok := golden[name]; !ok {
			t.Errorf("scenario %q has no committed golden (run -update-golden)", name)
		}
	}
}
