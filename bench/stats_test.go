package main

import (
	"fmt"
	"testing"
	"time"
)

// ramp returns 1..n shuffled deterministically, so sorted rank k holds k.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[(i*7)%n] = float64(i + 1) // 7 is coprime to every n used below
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		want   float64 // 0: must refuse
	}{
		{41, 0.5, minBeyond, 21},  // 20 samples beyond the median
		{41, 0.75, minBeyond, 31}, // exactly 10 beyond p75
		{40, 0.75, minBeyond, 30},
		{39, 0.75, minBeyond, 0}, // 9 beyond: refused
		{41, 0.9, minBeyond, 0},  // 4 beyond: refused
		{19, 0.5, minBeyond, 0},
		{5, 0.5, 0, 3}, // plain median of a small sample
		{1, 0.5, 0, 1},
	} {
		got, err := percentile(ramp(c.n), c.p, c.beyond)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples: got %g, want a refusal", 100*c.p, c.n, got)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("p%g of %d samples: got %g, %v; want %g", 100*c.p, c.n, got, err, c.want)
		}
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Error("percentile of an empty sample did not refuse")
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := newSpanSet()
	s.add("sim.run", 100*time.Millisecond, 1)
	s.add("topology.handler", 30*time.Millisecond, 1000)
	s.add("election.handler", 20*time.Millisecond, 500)
	s.add("sim.send", 10*time.Millisecond, 0)
	s.add("sim.new", 5*time.Millisecond, 1) // not a child of sim.run
	if got, want := s.self("sim.run", 1), 40*time.Millisecond; got != want {
		t.Errorf("self(sim.run) = %v, want %v", got, want)
	}
	// Two cores ran the children side by side: the parent counts twice.
	if got, want := s.self("sim.run", 2), 140*time.Millisecond; got != want {
		t.Errorf("self(sim.run) on 2 cores = %v, want %v", got, want)
	}
	if got, want := s.self("sim.new", 1), 5*time.Millisecond; got != want {
		t.Errorf("self(sim.new) = %v, want %v", got, want)
	}
}

// TestHandlerClockFold checks that a handler span is booked net of the
// sends it issued, and the sends under sim.send.
func TestHandlerClockFold(t *testing.T) {
	tr := newTracer()
	p := &timedProto{calls: 4, total: 9 * time.Millisecond}
	p.env.send = 3 * time.Millisecond
	tr.clocks["topology"] = []*timedProto{p}
	tr.spans.add("sim.run", 20*time.Millisecond, 1)
	v := tr.layerValues()
	for name, want := range map[string]float64{
		"topology.handler_s": 0.006, "topology.handler_calls": 4, "sim.send_s": 0.003, "sim.run_self_s": 0.011,
	} {
		if got := v[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestSpecMatchesHarness(t *testing.T) {
	if _, err := loadSpec(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadSmoke runs every workload at 1/50 input size: two untraced
// reps and one traced rep must pass their checks and agree on the digest.
func TestWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			sc, err := buildScenario(name, 3, 50)
			if err != nil {
				t.Fatal(err)
			}
			r := &runner{rep: &report{}}
			r.do(sc, nil)
			r.do(sc, nil)
			tr := newTracer()
			r.do(sc, tr)
			if r.rep.Failed != 0 || r.rep.Attempted != 3 {
				t.Fatalf("%d of %d reps failed: %v", r.rep.Failed, r.rep.Attempted, r.rep.Failures)
			}
			if r.rep.OpsPerRep <= 0 || r.rep.SimDigest == "" {
				t.Fatalf("ops %d digest %q", r.rep.OpsPerRep, r.rep.SimDigest)
			}
			if v := tr.layerValues(); v["core.hops"] <= 0 || v["sim.events"] <= 0 {
				t.Errorf("traced rep recorded no model counters: hops %g events %g", v["core.hops"], v["sim.events"])
			}
		})
	}
}

// TestTracedRunReportsEveryLayerMetric drives a whole -trace run.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runTraced("flood-jitter-c8-shard2", 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	rep.finish(spec)
	if !rep.Correct {
		t.Fatalf("failures: %v", rep.Failures)
	}
	if len(rep.Metrics) != len(spec.PerLayer) {
		t.Fatalf("%d metrics reported, %d declared", len(rep.Metrics), len(spec.PerLayer))
	}
	for _, name := range []string{"sim.run_s", "sim.shard_speedup", "topology.handler_calls", "graph.bfs_tree_s", "bench.trace_overhead_ratio"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, rep.Metrics[name].Value)
		}
	}
}

// TestFailedCheckCountsAndContinues: a rep whose ledger departs from the
// first rep's is a failed rep in fail_ratio, not the end of the run.
func TestFailedCheckCountsAndContinues(t *testing.T) {
	calls := 0
	sc := &scenario{rep: func(*tracer) (outcome, error) {
		calls++
		switch calls {
		case 3:
			return outcome{ops: 10, ledger: "hops=11"}, nil // wrong ledger
		case 5:
			return outcome{}, fmt.Errorf("delivered 9 of 10") // failed check
		}
		return outcome{ops: 10, ledger: "hops=10"}, nil
	}}
	r := &runner{rep: &report{}}
	good := 0
	for i := 0; i < 6; i++ {
		if _, ok := r.do(sc, nil); ok {
			good++
		}
	}
	if r.rep.Attempted != 6 || r.rep.Failed != 2 || good != 4 {
		t.Fatalf("attempted %d failed %d good %d, want 6, 2, 4", r.rep.Attempted, r.rep.Failed, good)
	}
	if len(r.rep.Failures) != 2 {
		t.Fatalf("failures: %v", r.rep.Failures)
	}
}
