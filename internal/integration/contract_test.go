package integration_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/runtimetest"
	"fastnet/internal/sim"
	"fastnet/internal/trace"
)

// engines are both runtimes as the runtime contract runs them: sim classic
// and under WithShards(1|2|8), then gosim, which takes no §7 filter from
// outside its package. Each row's outcome is held to classic sim's.
var engines = []runtimetest.Engine{
	simEngine("sim-classic", 0), simEngine("sim-shards-1", 1), simEngine("sim-shards-2", 2), simEngine("sim-shards-8", 8),
	{Name: "gosim", Preconditions: "gosim", New: func(g *graph.Graph, f core.Factory, c runtimetest.Config) (runtimetest.Net, error) {
		if c.Filter != nil {
			return nil, runtimetest.ErrRefused
		}
		return gosimNet{gosim.New(g, f, gosim.WithDmax(c.Dmax), gosim.WithMsgFaults(c.Faults), gosim.WithTrace(c.Trace))}, nil
	}},
}

// simEngine builds under WithShards(p). At p >= 2 a network that did not
// partition fails the row, and C = 0, where none can, is refused.
func simEngine(name string, p int) runtimetest.Engine {
	return runtimetest.Engine{Name: name, Preconditions: "sim", New: func(g *graph.Graph, f core.Factory, c runtimetest.Config) (runtimetest.Net, error) {
		if p > 1 && c.C == 0 {
			return nil, runtimetest.ErrRefused
		}
		net := sim.New(g, f, sim.WithDelays(c.C, c.P), sim.WithDmax(c.Dmax), sim.WithMsgFaults(c.Faults),
			sim.WithHopFilter(c.Filter), sim.WithTrace(c.Trace), sim.WithShards(p))
		if s := net.ShardInfo().Shards; p > 1 && s < 2 {
			return nil, fmt.Errorf("WithShards(%d) ran on %d shard", p, s)
		}
		return simNet{net}, nil
	}}
}

// simNet drives a sim.Network at its clock.
type simNet struct{ *sim.Network }

func (n simNet) Inject(v core.NodeID, payload any) { n.Network.Inject(n.Now(), v, payload) }
func (n simNet) CrashNode(v core.NodeID)           { n.Network.CrashNode(n.Now(), v) }
func (n simNet) RestoreNode(v core.NodeID)         { n.Network.RestoreNode(n.Now(), v) }
func (n simNet) Quiesce() error                    { _, err := n.Run(); return err }
func (simNet) Shutdown()                           {}

type gosimNet struct{ *gosim.Network }

func (n gosimNet) Quiesce() error { return n.AwaitQuiescence(10 * time.Second) }

// contract runs rows of the runtime contract on engines.
func contract(t *testing.T, engines []runtimetest.Engine, rows ...string) {
	t.Helper()
	for _, err := range runtimetest.Check(engines, rows...) {
		t.Error(err)
	}
}

// TestRuntimeContract runs every row of the runtime contract
// (internal/runtimetest; docs/MODEL.md §9 names the rows) on both runtimes.
// Where they agree, every engine's outcome must be classic sim's: the same
// core.Metrics but the finish time, the same refusals, the same multiset of
// deliveries (node, arrival and forwarding links, remaining and reverse
// routes, payload or core.Garbled).
func TestRuntimeContract(t *testing.T) {
	var names []string
	for name := range runtimetest.Rows {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) { contract(t, engines, name) })
	}
}

// TestHostileRouteRefusedOnBothRuntimes is the contract table of the hardware
// model's send side (docs/MODEL.md §§1-4, 9; rows routes/* and saturated/*):
// malformed, unroutable, over-long, dead-ended and multicast sends, with the
// lossy-link model off and on, answered as each route states, on every sim
// engine and then on gosim against classic sim; then each fault kind at
// probability 1 on a three-hop copy path, on every engine.
func TestHostileRouteRefusedOnBothRuntimes(t *testing.T) {
	for _, name := range []string{"faults-off", "faults-on"} {
		t.Run("sim/"+name, func(t *testing.T) { contract(t, engines[:4], "routes/"+name) })
		t.Run("gosim/"+name, func(t *testing.T) { contract(t, []runtimetest.Engine{engines[0], engines[4]}, "routes/"+name) })
	}
	for _, name := range []string{"drop", "dup", "corrupt", "jitter", "reorder", "slowdown", "dup-behind-dead-link"} {
		t.Run("saturated/"+name, func(t *testing.T) { contract(t, engines, "saturated/"+name) })
	}
}

// TestHandlerFailureOnBothRuntimes is the contract row of a handler that
// cannot continue (core.Env.Fail, row fail): on every engine the run ends
// with node 2's core.HandlerError, whose cause errors.Is reaches, a second
// run returns it again, and what the failing handler sent after Fail is never
// delivered — sim dispatches nothing more, gosim discards until it quiesces.
func TestHandlerFailureOnBothRuntimes(t *testing.T) { contract(t, engines, "fail") }

// TestInjectOutsideGraphOnBothRuntimes: Inject, StallNode, CrashNode and
// RestoreNode at a node outside [0, n) are refused on every engine by a
// precondition panic that names it, before the call changes anything (rows
// outside-graph/*).
func TestInjectOutsideGraphOnBothRuntimes(t *testing.T) {
	for _, v := range []core.NodeID{7, 3, -1} {
		for _, e := range engines {
			t.Run(fmt.Sprintf("%s/node-%d", e.Name, v), func(t *testing.T) {
				contract(t, []runtimetest.Engine{e}, fmt.Sprintf("outside-graph/node-%d", v))
			})
		}
	}
}

// initNote is a protocol that notes its Init.
type initNote struct {
	id   core.NodeID
	note func(string)
}

func (p *initNote) Init(core.Env)                 { p.note(fmt.Sprintf("init %d", p.id)) }
func (p *initNote) Deliver(core.Env, core.Packet) {}
func (p *initNote) LinkEvent(core.Env, core.Port) {}

// goroutine names the calling goroutine by the header of its stack trace.
func goroutine() string {
	buf := make([]byte, 64)
	header, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), "[")
	return header
}

// TestFactoryCalledInNodeOrder pins core.Factory's calling contract on every
// engine, the one that lets a factory carve its instances from a core.Slab:
// one call per node, in ID order, on the goroutine that builds the network,
// and every call before any node's Init.
func TestFactoryCalledInNodeOrder(t *testing.T) {
	const n = 6
	for _, e := range engines {
		t.Run(strings.TrimSuffix(e.Name, "-classic"), func(t *testing.T) {
			var mu sync.Mutex
			var log, want []string
			note := func(s string) {
				mu.Lock()
				log = append(log, s)
				mu.Unlock()
			}
			net, err := e.New(graph.Ring(n), func(id core.NodeID) core.Protocol {
				note(fmt.Sprintf("factory %d on %s", id, goroutine()))
				return &initNote{id: id, note: note}
			}, runtimetest.Config{C: 1, P: 1, Trace: trace.Discard{}})
			if err != nil {
				t.Fatal(err)
			}
			net.Shutdown()
			for u := range n {
				want = append(want, fmt.Sprintf("factory %d on %s", u, goroutine()))
			}
			mu.Lock()
			defer mu.Unlock()
			if len(log) != 2*n || !slices.Equal(log[:n], want) {
				t.Fatalf("calls %q, want %q and then %d Inits", log, want, n)
			}
			for _, s := range log[n:] {
				if !strings.HasPrefix(s, "init ") {
					t.Fatalf("calls %q: %q after an Init", log, s)
				}
			}
		})
	}
}
