package election

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

func allNodes(n int) []core.NodeID {
	out := make([]core.NodeID, n)
	for i := range out {
		out[i] = core.NodeID(i)
	}
	return out
}

func TestSingleNode(t *testing.T) {
	res, err := Run(graph.New(1), AlgoToken, []core.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 0 {
		t.Fatalf("leader = %d, want 0", res.Leader)
	}
	if res.AlgorithmMessages != 0 {
		t.Fatalf("messages = %d, want 0", res.AlgorithmMessages)
	}
}

func TestTwoNodes(t *testing.T) {
	res, err := Run(graph.Path(2), AlgoToken, allNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.AlgorithmMessages > 12 {
		t.Fatalf("messages = %d, want <= 6n = 12", res.AlgorithmMessages)
	}
}

func TestTokenElectionTopologies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring16", graph.Ring(16)},
		{"path17", graph.Path(17)},
		{"star16", graph.Star(16)},
		{"complete12", graph.Complete(12)},
		{"grid5x5", graph.Grid(5, 5)},
		{"tree31", graph.CompleteBinaryTree(4)},
		{"gnp48", graph.GNP(48, 0.1, 4)},
		{"arpanet", graph.ARPANET()},
		{"randomtree64", graph.RandomTree(64, 8)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := tt.g.N()
			res, err := Run(tt.g, AlgoToken, allNodes(n))
			if err != nil {
				t.Fatal(err)
			}
			if res.AlgorithmMessages > int64(6*n) {
				t.Fatalf("messages = %d > 6n = %d (Theorem 5)", res.AlgorithmMessages, 6*n)
			}
			// O(n) time with C=0, P=1 (constant ~ a few n).
			if res.Metrics.FinishTime > core.Time(8*n) {
				t.Fatalf("finish = %d, want O(n) (n=%d)", res.Metrics.FinishTime, n)
			}
		})
	}
}

func TestSingleStarter(t *testing.T) {
	// One START must still wake the whole network and elect a unique
	// leader ("a non-empty set of nodes starts").
	for _, g := range []*graph.Graph{graph.Ring(12), graph.GNP(30, 0.15, 5), graph.Star(9)} {
		res, err := Run(g, AlgoToken, []core.NodeID{0})
		if err != nil {
			t.Fatal(err)
		}
		if res.AlgorithmMessages > int64(6*g.N()) {
			t.Fatalf("messages = %d > 6n", res.AlgorithmMessages)
		}
	}
}

func TestSubsetStarters(t *testing.T) {
	g := graph.GNP(40, 0.12, 6)
	res, err := Run(g, AlgoToken, []core.NodeID{3, 17, 29})
	if err != nil {
		t.Fatal(err)
	}
	if res.AlgorithmMessages > int64(6*g.N()) {
		t.Fatalf("messages = %d > 6n", res.AlgorithmMessages)
	}
}

func TestTokenElectionRandomDelays(t *testing.T) {
	// Random (bounded) asynchronous delays must not break correctness.
	for seed := int64(0); seed < 8; seed++ {
		g := graph.GNP(24, 0.15, seed)
		res, err := Run(g, AlgoToken, allNodes(24),
			sim.WithRandomDelays(), sim.WithDelays(3, 5), sim.WithSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.AlgorithmMessages > int64(6*24) {
			t.Fatalf("seed %d: messages = %d > 6n", seed, res.AlgorithmMessages)
		}
	}
}

func TestTokenElectionGosim(t *testing.T) {
	// The same protocol under true goroutine asynchrony.
	for seed := int64(0); seed < 5; seed++ {
		g := graph.GNP(20, 0.2, seed+100)
		res, err := RunAsync(g, AlgoToken, allNodes(20), seed, 20*time.Second)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.AlgorithmMessages > int64(6*20) {
			t.Fatalf("seed %d: messages = %d > 6n", seed, res.AlgorithmMessages)
		}
	}
}

func TestSixNBoundQuick(t *testing.T) {
	f := func(seed int64, sz uint8, starters uint8) bool {
		n := int(sz%40) + 2
		g := graph.GNP(n, 0.15, seed)
		var ss []core.NodeID
		k := int(starters)%n + 1
		for i := 0; i < k; i++ {
			ss = append(ss, core.NodeID((i*7)%n))
		}
		res, err := Run(g, AlgoToken, ss, sim.WithSeed(seed))
		if err != nil {
			return false
		}
		return res.AlgorithmMessages <= int64(6*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHSRingElects(t *testing.T) {
	for _, n := range []int{4, 9, 16, 33, 64} {
		g := graph.Ring(n)
		res, err := Run(g, AlgoHS, allNodes(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Leader != core.NodeID(n-1) {
			t.Fatalf("n=%d: leader = %d, want max ID %d", n, res.Leader, n-1)
		}
	}
}

func TestHSMessageComplexity(t *testing.T) {
	// HS is O(n log n); verify it exceeds 6n for large rings (the paper's
	// point: classical algorithms stay Ω(n log n) under the new measure).
	n := 512
	res, err := Run(graph.Ring(n), AlgoHS, allNodes(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.AlgorithmMessages <= int64(6*n) {
		t.Fatalf("HS messages = %d, expected > 6n = %d on a large ring",
			res.AlgorithmMessages, 6*n)
	}
	// And it is still O(n log n): 8 * n * log2(n) is a generous cap.
	if res.AlgorithmMessages > int64(8*n*10) {
		t.Fatalf("HS messages = %d, way beyond O(n log n)", res.AlgorithmMessages)
	}
}

func TestNaiveCompleteGraph(t *testing.T) {
	n := 24
	res, err := Run(graph.Complete(n), AlgoNaive, allNodes(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != core.NodeID(n-1) {
		t.Fatalf("leader = %d, want %d", res.Leader, n-1)
	}
	want := int64(n * (n - 1))
	if res.AlgorithmMessages != want {
		t.Fatalf("messages = %d, want exactly n(n-1) = %d", res.AlgorithmMessages, want)
	}
}

func TestTokenBeatsBaselines(t *testing.T) {
	// On the same ring, token-domains must use fewer system calls than HS.
	n := 256
	ring := graph.Ring(n)
	tok, err := Run(ring, AlgoToken, allNodes(n))
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Run(ring, AlgoHS, allNodes(n))
	if err != nil {
		t.Fatal(err)
	}
	if tok.AlgorithmMessages >= hs.AlgorithmMessages {
		t.Fatalf("token %d >= HS %d messages", tok.AlgorithmMessages, hs.AlgorithmMessages)
	}
}

func TestValidateRejectsBadOutcomes(t *testing.T) {
	g := graph.Path(2)
	states := map[core.NodeID]State{0: StateLeader, 1: StateNotLeader}
	if _, err := validate(g, func(u core.NodeID) State { return states[u] }); err == nil {
		t.Fatal("undecided node must fail validation")
	}
	states[1] = StateLeader
	if _, err := validate(g, func(u core.NodeID) State { return states[u] }); err == nil {
		t.Fatal("two leaders must fail validation")
	}
	states = map[core.NodeID]State{0: StateLeaderElected, 1: StateLeaderElected}
	if _, err := validate(g, func(u core.NodeID) State { return states[u] }); err == nil {
		t.Fatal("zero leaders must fail validation")
	}
}

func TestLevelOrdering(t *testing.T) {
	a := level{Size: 2, ID: 9}
	b := level{Size: 3, ID: 1}
	if !a.less(b) || b.less(a) {
		t.Fatal("size dominates")
	}
	c := level{Size: 2, ID: 1}
	if !c.less(a) {
		t.Fatal("ID breaks ties")
	}
}

func TestPhaseOf(t *testing.T) {
	tests := []struct{ size, want int }{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1000, 9},
	}
	for _, tt := range tests {
		if got := phaseOf(tt.size); got != tt.want {
			t.Fatalf("phaseOf(%d) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func TestStateString(t *testing.T) {
	if StateLeader.String() != "leader" || StateNotLeader.String() != "not.leader" ||
		StateLeaderElected.String() != "leader.elected" || State(9).String() != "state(9)" {
		t.Fatal("State.String mismatch")
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgoToken.String() != "token-domains" || AlgoHS.String() != "hirschberg-sinclair" ||
		AlgoNaive.String() != "naive-allpairs" || Algorithm(9).String() != "algo(9)" {
		t.Fatal("Algorithm.String mismatch")
	}
}

// --- inoutTree unit tests ---

func TestInOutTreeRoute(t *testing.T) {
	tr := newInOutTree(0)
	must := func(e treeEntry) {
		if err := tr.attach(e); err != nil {
			t.Fatal(err)
		}
	}
	must(treeEntry{Node: 1, Parent: 0, Down: 2, Up: 1})
	must(treeEntry{Node: 2, Parent: 1, Down: 3, Up: 1})
	h, err := tr.route(2)
	if err != nil {
		t.Fatal(err)
	}
	want := anr.Direct([]anr.ID{2, 3})
	if len(h) != len(want) {
		t.Fatalf("route = %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("route = %v, want %v", h, want)
		}
	}
	if h, err := tr.route(0); err != nil || h.HopCount() != 0 {
		t.Fatalf("route to root = %v, %v", h, err)
	}
	if _, err := tr.route(9); err == nil {
		t.Fatal("route to unknown node must fail")
	}
}

func TestInOutTreeAttachErrors(t *testing.T) {
	tr := newInOutTree(0)
	if err := tr.attach(treeEntry{Node: 0, Parent: 0}); err == nil {
		t.Fatal("attaching the root must fail")
	}
	if err := tr.attach(treeEntry{Node: 2, Parent: 1}); err == nil {
		t.Fatal("attaching under unknown parent must fail")
	}
	if err := tr.attach(treeEntry{Node: 1, Parent: 0}); err != nil {
		t.Fatal(err)
	}
	if err := tr.attach(treeEntry{Node: 1, Parent: 0}); err == nil {
		t.Fatal("duplicate attach must fail")
	}
}

func TestInOutTreeReroot(t *testing.T) {
	// 0 -> 1 -> 2, with distinct link IDs per direction.
	tr := newInOutTree(0)
	_ = tr.attach(treeEntry{Node: 1, Parent: 0, Down: 10, Up: 11})
	_ = tr.attach(treeEntry{Node: 2, Parent: 1, Down: 20, Up: 21})
	re, err := tr.reroot(2)
	if err != nil {
		t.Fatal(err)
	}
	if re.root() != 2 {
		t.Fatalf("root = %d, want 2", re.root())
	}
	// Route 2 -> 0 must use the Up IDs in reverse order: 21 then 11.
	h, err := re.route(0)
	if err != nil {
		t.Fatal(err)
	}
	want := anr.Direct([]anr.ID{21, 11})
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("route = %v, want %v", h, want)
		}
	}
	// Rerooting to the current root is a no-op.
	same, err := tr.reroot(0)
	if err != nil || same.root() != 0 {
		t.Fatalf("reroot to self: %v, %v", same, err)
	}
	if _, err := tr.reroot(9); err == nil {
		t.Fatal("reroot to unknown node must fail")
	}
}

func TestInOutTreeRerootKeepsBranches(t *testing.T) {
	// 0 -> 1 -> 2 and 1 -> 3: after rerooting at 2, node 3 must stay
	// attached under 1 with its original IDs.
	tr := newInOutTree(0)
	_ = tr.attach(treeEntry{Node: 1, Parent: 0, Down: 10, Up: 11})
	_ = tr.attach(treeEntry{Node: 2, Parent: 1, Down: 20, Up: 21})
	_ = tr.attach(treeEntry{Node: 3, Parent: 1, Down: 30, Up: 31})
	re, err := tr.reroot(2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := re.route(3)
	if err != nil {
		t.Fatal(err)
	}
	want := anr.Direct([]anr.ID{21, 30})
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("route to 3 = %v, want %v", h, want)
		}
	}
	if re.size() != 4 {
		t.Fatalf("size = %d, want 4", re.size())
	}
}

func TestInOutTreeWireRoundTrip(t *testing.T) {
	tr := newInOutTree(5)
	_ = tr.attach(treeEntry{Node: 1, Parent: 5, Down: 1, Up: 2})
	_ = tr.attach(treeEntry{Node: 2, Parent: 1, Down: 3, Up: 4})
	_ = tr.attach(treeEntry{Node: 3, Parent: 5, Down: 5, Up: 6})
	wire := tr.wire()
	rt := newInOutTree(5)
	for _, e := range wire {
		if err := rt.attach(e); err != nil {
			t.Fatalf("wire order broken: %v", err)
		}
	}
	if rt.size() != tr.size() {
		t.Fatalf("size = %d, want %d", rt.size(), tr.size())
	}
}

// TestUnknownAlgorithmPanics reaches the driver's precondition: an Algorithm
// that is none of the constants.
func TestUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "election: unknown algorithm 99") {
			t.Errorf("panic %q, want one naming the algorithm", msg)
		}
	}()
	_, _ = Run(graph.Ring(4), Algorithm(99), []core.NodeID{0})
}
