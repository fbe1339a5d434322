package faults

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

func TestStateCausesCompose(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	st := newState(g)

	// Flap 1-2 down, then crash node 1: the edge has two causes.
	if flips := st.apply(event{Kind: linkDown, U: 1, V: 2}); len(flips) != 1 || flips[0].Up {
		t.Fatalf("flap down flips = %v", flips)
	}
	flips := st.apply(event{Kind: crash, U: 1})
	// 1-2 already down, so only 0-1 actually flips.
	if len(flips) != 1 || flips[0] != (flip{U: 0, V: 1, Up: false}) {
		t.Fatalf("crash flips = %v, want only 0-1 down", flips)
	}
	// Healing the flap must not resurrect the edge while 1 is crashed.
	if flips := st.apply(event{Kind: linkUp, U: 1, V: 2}); len(flips) != 0 {
		t.Fatalf("heal under crash flipped %v", flips)
	}
	if !st.edgeDown(1, 2) {
		t.Fatal("edge 1-2 must stay down: endpoint crashed")
	}
	// restore brings back exactly the edges with no remaining cause.
	flips = st.apply(event{Kind: restore, U: 1})
	want := []flip{{U: 0, V: 1, Up: true}, {U: 1, V: 2, Up: true}}
	if !reflect.DeepEqual(flips, want) {
		t.Fatalf("restore flips = %v, want %v", flips, want)
	}
	if len(st.downEdges()) != 0 {
		t.Fatalf("down after full heal: %v", st.downEdges())
	}
}

func TestStateTouchedPerEpoch(t *testing.T) {
	g := graph.Path(3)
	st := newState(g)
	st.apply(event{Kind: linkDown, U: 0, V: 1})
	st.apply(event{Kind: linkUp, U: 0, V: 1})
	if !st.wasTouched(0, 1) {
		t.Fatal("healed flap must still count as touched this epoch")
	}
	st.beginEpoch()
	if st.wasTouched(0, 1) {
		t.Fatal("touched must reset at epoch start")
	}
}

func TestStateLiveGraph(t *testing.T) {
	g := graph.Ring(5)
	st := newState(g)
	st.apply(event{Kind: crash, U: 2})
	live := st.liveGraph()
	if live.Degree(2) != 0 {
		t.Fatalf("crashed node degree = %d, want 0", live.Degree(2))
	}
	if live.M() != g.M()-2 {
		t.Fatalf("live edges = %d, want %d", live.M(), g.M()-2)
	}
	if got := len(st.downEdges()); got != 2 {
		t.Fatalf("down edges = %d, want 2", got)
	}
}

// planEpochs plans and applies epochs of gens on g from seed as the soak does,
// stalls included, and returns each epoch's sorted events.
func planEpochs(g *graph.Graph, seed int64, epochs int, gens ...generator) [][]event {
	rng, st := rand.New(rand.NewSource(seed)), newState(g)
	var out [][]event
	for e := 0; e < epochs; e++ {
		st.beginEpoch()
		var evs []event
		for _, gen := range gens {
			evs = append(evs, gen.Plan(e, st, rng)...)
		}
		sortEvents(evs)
		for _, ev := range evs {
			st.apply(ev)
		}
		stalled(2, st, rng)
		out = append(out, evs)
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	plan := func() [][]event {
		return planEpochs(graph.GNP(12, 0.4, 7), 42, 4, flaps{PerEpoch: 2, Len: 1}, &partitions{Every: 2, Heal: 1}, &churn{PerEpoch: 1, Downtime: 1})
	}
	if a, b := plan(), plan(); !reflect.DeepEqual(a, b) || len(slices.Concat(a...)) == 0 {
		t.Fatalf("one seed planned two schedules, or nothing:\n%v\n%v", a, b)
	}
}

// TestGeneratorsOnDegenerateGraphs: the soak takes any graph (`fastnet soak
// -n 1`), so each generator plans three epochs on the graphs with nothing (or
// almost nothing) to fail — no nodes, one node, one link — without panicking.
// partitions drew rng.Intn(n-1) for its subset size, which panics at n <= 1.
func TestGeneratorsOnDegenerateGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{graph.New(0), graph.New(1), graph.Path(2)} {
		planEpochs(g, 1, 3, flaps{PerEpoch: 2, Len: 1}, &partitions{Every: 1, Heal: 1}, &churn{PerEpoch: 2, Downtime: 1}, &adversary{Witness: &witness{}})
	}
}

func TestFlapsPairDownWithUp(t *testing.T) {
	evs := planEpochs(graph.Ring(6), 1, 1, flaps{PerEpoch: 3, Len: 2})[0]
	if len(evs) != 6 {
		t.Fatalf("planned %d events, want 6 (3 down + 3 up)", len(evs))
	}
	downs := map[graph.Edge]int{}
	for _, ev := range evs {
		e := graph.Edge{U: ev.U, V: ev.V}.Canon()
		switch ev.Kind {
		case linkDown:
			downs[e] = ev.Step
		case linkUp:
			if down, ok := downs[e]; !ok || ev.Step != down+2 {
				t.Fatalf("up event %v does not pair with its down", ev)
			}
		}
	}
}

func TestPartitionsCutsAndHeals(t *testing.T) {
	st := newState(graph.Complete(6))
	rng := rand.New(rand.NewSource(3))
	p := &partitions{Every: 10, Heal: 2}
	apply := func(evs []event, k kind) {
		for _, ev := range evs {
			if ev.Kind != k || ev.Step != 0 {
				t.Fatalf("event %v, want a step-0 %s", ev, k)
			}
			st.apply(ev)
		}
	}
	cut := p.Plan(0, st, rng)
	if apply(cut, linkDown); len(cut) == 0 || st.liveGraph().Connected() {
		t.Fatalf("epoch 0 planned %v: want a cut that disconnects the graph", cut)
	}
	if evs := p.Plan(1, st, rng); len(evs) != 0 {
		t.Fatalf("epoch 1 planned %v, want nothing", evs)
	}
	heal := p.Plan(2, st, rng)
	if apply(heal, linkUp); len(heal) != len(cut) || !st.liveGraph().Connected() {
		t.Fatalf("epoch 2 planned %v: want the whole cut healed", heal)
	}
}

func TestChurnRestoresAfterDowntime(t *testing.T) {
	epochs := planEpochs(graph.Ring(8), 5, 3, &churn{PerEpoch: 2, Downtime: 2})
	nodes := func(evs []event, k kind) (out []core.NodeID) {
		for _, ev := range evs {
			if ev.Kind == k {
				out = append(out, ev.U)
			}
		}
		return out
	}
	if crashed, restored := nodes(epochs[0], crash), nodes(epochs[2], restore); len(crashed) != 2 || !slices.Equal(crashed, restored) {
		t.Fatalf("epoch 0 crashed %v, epoch 2 restored %v: want the same two nodes", crashed, restored)
	}
}

func TestWitnessCorrelatesSendToDeliver(t *testing.T) {
	w := &witness{}
	w.Record(trace.Event{Kind: trace.KindSend, Node: 2, Msg: 7})
	w.Record(trace.Event{Kind: trace.KindDeliver, Node: 3, Msg: 7})
	from, to, ok := w.lastHop()
	if !ok || from != 2 || to != 3 {
		t.Fatalf("LastHop = %d,%d,%v, want 2,3,true", from, to, ok)
	}
	w.reset()
	// The hop survives a reset; only the correlation table is dropped.
	if _, _, ok := w.lastHop(); !ok {
		t.Fatal("LastHop lost across Reset")
	}
	w.Record(trace.Event{Kind: trace.KindDeliver, Node: 5, Msg: 9})
	if from, to, _ := w.lastHop(); from != 2 || to != 3 {
		t.Fatalf("uncorrelated deliver moved LastHop to %d,%d", from, to)
	}
}

func TestAdversaryFailsObservedHopThenHeals(t *testing.T) {
	g := graph.Ring(5)
	st := newState(g)
	rng := rand.New(rand.NewSource(1))
	w := &witness{}
	a := &adversary{Witness: w}

	w.Record(trace.Event{Kind: trace.KindSend, Node: 1, Msg: 1})
	w.Record(trace.Event{Kind: trace.KindDeliver, Node: 2, Msg: 1})
	evs := a.Plan(0, st, rng)
	if len(evs) != 1 || evs[0].Kind != linkDown {
		t.Fatalf("plan = %v, want one link-down", evs)
	}
	e := graph.Edge{U: evs[0].U, V: evs[0].V}.Canon()
	if e != (graph.Edge{U: 1, V: 2}) {
		t.Fatalf("adversary failed %v, want the observed hop 1-2", e)
	}
	st.apply(evs[0])
	heal := a.Plan(1, st, rng)
	if len(heal) == 0 || heal[0].Kind != linkUp {
		t.Fatalf("next epoch = %v, want the heal first", heal)
	}
}

func TestSortEventsStableOrder(t *testing.T) {
	evs := []event{
		{Step: 1, Kind: linkUp, U: 3, V: 4},
		{Step: 0, Kind: crash, U: 9},
		{Step: 0, Kind: linkDown, U: 1, V: 2},
		{Step: 0, Kind: linkDown, U: 0, V: 2},
	}
	sortEvents(evs)
	want := []event{
		{Step: 0, Kind: linkDown, U: 0, V: 2},
		{Step: 0, Kind: linkDown, U: 1, V: 2},
		{Step: 0, Kind: crash, U: 9},
		{Step: 1, Kind: linkUp, U: 3, V: 4},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("sorted = %v, want %v", evs, want)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := graph.Ring(6)
	comp := []core.NodeID{1, 2, 3}
	sub, ids := inducedSubgraph(g, comp)
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("sub = %d nodes %d edges, want 3/2", sub.N(), sub.M())
	}
	if ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("ids = %v", ids)
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatal("induced edges wrong")
	}
}

// TestMsgFaultSchedules: an epoch's lossy-link profile is the configured one,
// scaled by BurstScale every BurstEvery-th epoch, saturating at probability 1.
func TestMsgFaultSchedules(t *testing.T) {
	cfg := Config{Loss: 0.1, Dup: 0.05}
	bursty := Config{Loss: 0.1, Dup: 0.05, BurstEvery: 3, BurstScale: 2}
	for e, drop := range []float64{0.1, 0.1, 0.2, 0.1, 0.1, 0.2, 0.1} {
		if got := bursty.profile(e); got.Drop != drop || got.Dup != drop/2 || cfg.profile(e) != cfg.msgFaults() {
			t.Fatalf("epoch %d: profile %+v, want drop %g; unbursted %+v", e, got, drop, cfg.profile(e))
		}
	}
	if sat := (Config{Loss: 0.6, BurstEvery: 1, BurstScale: 5}).profile(0); sat.Drop > 1 {
		t.Fatalf("burst scaled past probability 1: %+v", sat)
	}
}
