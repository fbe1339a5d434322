package sim_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden hashes from the current implementation")

// goldenRows pin one run per distinct event-core code path: exact and
// randomized delays (node rng + network rng), the lossy-link model (fault
// rng, duplication, corruption, jitter), link flips mid-run (link events,
// drops on down links), and a multi-starter election (protocol rng, header
// reverse-path accumulation). Together they cover every rng stream and every
// event kind the scheduler handles.
func goldenRows() []scenario {
	return []scenario{
		{name: "broadcast-tree-exact", graph: graphSpec{family: tree, n: 64, seed: 3}, mode: topology.ModeBranching, preload: 64,
			c: 0, p: 1, seed: 1, dmax: 64, steps: script(injectAt(0, 0), runAll())},
		{name: "flood-random-delays", graph: graphSpec{n: 48, p: 0.12, seed: 7}, mode: topology.ModeFlood,
			c: 3, p: 2, random: true, seed: 42, dmax: 48, steps: script(injectEvery(48, 1, 1), runAll())},
		{name: "lossy-flaps", graph: graphSpec{n: 40, p: 0.12, seed: 9}, mode: topology.ModeFlood, full: true,
			c: 2, p: 3, random: true, seed: 13, dmax: 40, faults: core.MsgFaults{Drop: 0.05, Dup: 0.05, Corrupt: 0.03, Jitter: 0.1, JitterMax: 3},
			steps: script(link(1, 0, false), link(40, 0, true), link(25, 1, false), injectEvery(40, 1, 5), runAll())},
		{name: "election-random-delays", graph: graphSpec{n: 32, p: 0.15, seed: 5}, proto: elect,
			c: 2, p: 3, random: true, seed: 11, dmax: election.Dmax(32), steps: script(injectEvery(32, 1, 1), runAll())},
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
// equivalence evidence that gated the re-pin). TestCutThroughDifferential
// holds the rest of the classic side of the table to these rows.
func TestGoldenHashes(t *testing.T) {
	goldenFile(t, "golden_hashes.json", classicSide[0])
}

// TestShardGoldenHashes pins the shard-mode observable stream byte for byte,
// like TestGoldenHashes does for the classic scheduler. Every row is hashed
// at one and at four shards and both must match the committed value — so a
// regression in either the serial reference or the parallel engine (or a
// drift between them) fails against a fixed point, not just pairwise. The
// three rows that draw were re-pinned once, when the per-node streams became
// 16-byte PCGs (docs/PERF.md, "The shard-mode stream contract");
// broadcast-tree-exact, which draws nothing, kept its hash.
func TestShardGoldenHashes(t *testing.T) {
	goldenFile(t, "shard_golden_hashes.json", shardSide[0], shardSide[3])
}

// goldenFile plays every golden row on each engine and holds every digest to
// the committed one, or rewrites the file from the first engine's under
// -update-golden once the others agree with it.
func goldenFile(t *testing.T, name string, engines ...engine) {
	path := filepath.Join("testdata", name)
	golden := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
	} else if !*updateGolden {
		t.Fatalf("missing %s (run with -update-golden to create)", path)
	}
	got := map[string]string{}
	for _, s := range goldenRows() {
		for i, e := range engines {
			d := play(t, s, e).digest()
			if i == 0 {
				got[s.name] = d
			} else if d != got[s.name] {
				t.Fatalf("scenario %q: %s and %s disagree before pinning\n  %s\n  %s", s.name, engines[0].name, e.name, got[s.name], d)
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	for name, want := range golden {
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
