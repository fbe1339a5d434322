package faults

import (
	"math/rand"
	"runtime"
	"testing"

	"fastnet/internal/graph"
	"fastnet/internal/topology"
)

// soakChurn is the repository benchmark's soak-churn workload at seed 1: a
// connected 96-node fabric with exactly 96*8/2 edges (a random spanning tree
// plus uniformly random extra edges) under flaps, crashes, a lossy profile,
// ARQ and calls, full-knowledge branching-paths maintenance.
func soakChurn() (*graph.Graph, Config) {
	const n, seed = 96, 1
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]))
	}
	for g.M() < n*8/2 {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g, Config{
		Seed: seed, Epochs: 5, Mode: topology.ModeBranching,
		Flaps: 4, Crashes: 2, Downtime: 2, Calls: 8,
		Reliable: 8, Loss: 0.1, Dup: 0.05, Corrupt: 0.025, Jitter: 0.05,
	}
}

// TestSoakChurnAllocsPerOp pins what a churn soak allocates per model
// operation (hops + system calls + re-election messages) and per rep. Four
// fifths of the run are deliveries of the full-knowledge broadcast, and a
// delivery must cost what it brings that is new: the origin's plan travels as
// finished headers every relay sends as they stand, a batch of known records
// is screened without a call, and a plan is rebuilt only when the believed
// topology changed — in pooled scratch, keeping only the plan's own storage.
// Measured 0.54 objects per op when the test was added; 1.95 with route specs
// turned into headers at every path start of every round; 0.40 and 26.3 MB
// per rep with each plan's child lists, labels and chains made afresh and
// each grown adjacency list allocated on its own; 0.25 and 18.0 MB since.
func TestSoakChurnAllocsPerOp(t *testing.T) {
	g, cfg := soakChurn()
	var ops int64
	rep := func() {
		res, err := Soak(g, cfg)
		if err != nil || !res.OK() {
			t.Fatalf("soak: %v, violations %v", err, res.Violations)
		}
		ops = res.Metrics.Hops + res.Metrics.Syscalls() + res.ReelectMsgs
	}
	// One P, as testing.AllocsPerRun runs, so every rep meets one set of
	// pools; the first rep warms them and the lazily built tables.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep()
	const reps = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		rep()
	}
	runtime.ReadMemStats(&after)
	if ops != 168576 {
		t.Fatalf("%d model ops, want the benchmark's 168576: the workload moved", ops)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / reps
	mb := float64(after.TotalAlloc-before.TotalAlloc) / reps / 1e6
	t.Logf("%.0f allocs and %.1f MB per rep for %d model ops: %.2f allocs per op", allocs, mb, ops, allocs/float64(ops))
	if allocs/float64(ops) > 0.30 {
		t.Errorf("%.2f allocs per model op, want <= 0.30", allocs/float64(ops))
	}
	if mb > 21 {
		t.Errorf("%.1f MB per rep, want <= 21", mb)
	}
}

// BenchmarkSoakChurn is one rep of the soak-churn row per iteration: the
// harness docs/PERF-LOG.md's CPU and allocation profiles of that row come
// from (go test -c, then -test.bench SoakChurn -test.cpuprofile on each
// commit).
func BenchmarkSoakChurn(b *testing.B) {
	g, cfg := soakChurn()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res, err := Soak(g, cfg); err != nil || !res.OK() {
			b.Fatalf("soak: %v", err)
		}
	}
}
