package gosim_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// countSink counts the events a network records; safe for concurrent use.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Record(trace.Event) { s.n.Add(1) }

// TestReseqShutdownNoLeakWithPendingBuffers is the election's mirror of
// TestShutdownNoLeakUnderFaults: a §4 election on the goroutine runtime, under
// drop and reorder faults, is shut down mid-run with tours in flight and
// reordered deliveries still queued. Every node loop must wind down without
// leaking goroutines. Run under -race in CI.
func TestReseqShutdownNoLeakWithPendingBuffers(t *testing.T) {
	before := runtime.NumGoroutine()
	var m core.Metrics
	for round := int64(1); round <= 3; round++ {
		g := graph.GNP(24, 0.22, round)
		stats := &election.Stats{}
		sink := &countSink{}
		net := gosim.New(g, func(id core.NodeID) core.Protocol { return election.New(id, stats) },
			gosim.WithSeed(round), gosim.WithTrace(sink), gosim.WithDmax(election.Dmax(g.N())),
			gosim.WithMsgFaults(core.MsgFaults{Drop: 0.2, Reorder: 0.5, ReorderWindow: 100}))
		for u := 0; u < g.N(); u++ {
			net.Inject(core.NodeID(u), election.Start{})
		}
		// Let the election get going (or stall on a dropped tour), then pull
		// the plug.
		for sink.n.Load() < 50 && net.AwaitQuiescence(time.Millisecond) != nil {
		}
		net.Shutdown()
		m.Add(net.Metrics())
	}
	if m.FaultDrops == 0 || m.FaultReorders == 0 {
		t.Fatalf("scenario too tame to exercise both faults: %+v", m)
	}
	// Goroutine counts are noisy; poll for decay back toward the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestResequencerGosim runs E22's election on the goroutine runtime: GNP(24,
// 0.22) samples, every node starting, each traversal reordered with
// probability 0.25, 0.5 or 0.7 (window 100). The election needs no
// resequencer: one leader, full domain, at most 6n algorithm messages, and
// the fault fired.
func TestResequencerGosim(t *testing.T) {
	const n = 24
	starters := make([]core.NodeID, n)
	for i := range starters {
		starters[i] = core.NodeID(i)
	}
	for _, rate := range []float64{0.25, 0.5, 0.7} {
		faults := core.MsgFaults{Reorder: rate, ReorderWindow: 100}
		var m core.Metrics
		for seed := int64(1); seed <= 3; seed++ {
			g := graph.GNP(n, 0.22, seed)
			if !g.Connected() {
				continue
			}
			res, err := election.RunAsync(g, election.AlgoToken, starters, seed, 30*time.Second, gosim.WithMsgFaults(faults))
			if err != nil {
				t.Fatalf("%s seed %d: %v", faults, seed, err)
			}
			if res.LeaderDomain != n || res.AlgorithmMessages > 6*n {
				t.Fatalf("%s seed %d: domain %d of %d, %d algorithm messages (6n = %d)",
					faults, seed, res.LeaderDomain, n, res.AlgorithmMessages, 6*n)
			}
			m.Add(res.Metrics)
		}
		if m.FaultReorders == 0 {
			t.Fatalf("%s: no connected sample reordered anything", faults)
		}
	}
}
