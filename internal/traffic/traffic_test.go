package traffic

import (
	"errors"
	"slices"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

func TestHardwareCostsNoTransitSyscalls(t *testing.T) {
	g := graph.Path(8)
	flows := []Flow{{Src: 0, Dst: 7, Packets: 50}}
	res, err := Run(g, flows, Hardware, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 50 {
		t.Fatalf("delivered = %d, want 50", res.Delivered)
	}
	if res.TransitSyscalls != 0 {
		t.Fatalf("transit syscalls = %d, want 0 (hardware only)", res.TransitSyscalls)
	}
	// Only the destination pays software: 50 deliveries.
	if res.Metrics.Deliveries != 50 {
		t.Fatalf("deliveries = %d, want 50", res.Metrics.Deliveries)
	}
}

func TestStoreAndForwardPaysPerHop(t *testing.T) {
	g := graph.Path(8)
	flows := []Flow{{Src: 0, Dst: 7, Packets: 50}}
	res, err := Run(g, flows, StoreAndForward, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 50 {
		t.Fatalf("delivered = %d, want 50", res.Delivered)
	}
	// 7 hops -> 7 deliveries per packet (6 transit + destination).
	if res.Metrics.Deliveries != 50*7 {
		t.Fatalf("deliveries = %d, want %d", res.Metrics.Deliveries, 50*7)
	}
	if res.TransitSyscalls != 50*6 {
		t.Fatalf("transit syscalls = %d, want %d", res.TransitSyscalls, 50*6)
	}
}

func TestHardwareFasterWhenSoftwareSlow(t *testing.T) {
	g := graph.Path(10)
	flows := []Flow{{Src: 0, Dst: 9, Packets: 1}}
	hw, err := Run(g, flows, Hardware, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := Run(g, flows, StoreAndForward, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Hardware: P (inject) + 9C + P; store-and-forward adds ~9P of relay
	// processing.
	if hw.Metrics.FinishTime >= sf.Metrics.FinishTime {
		t.Fatalf("hardware %d >= store-and-forward %d", hw.Metrics.FinishTime, sf.Metrics.FinishTime)
	}
	if sf.Metrics.FinishTime-hw.Metrics.FinishTime < 8*20 {
		t.Fatalf("gap = %d, want ~9P", sf.Metrics.FinishTime-hw.Metrics.FinishTime)
	}
}

func TestUtilizationCollapsesWithHardware(t *testing.T) {
	// Many flows crossing a path's middle: with store-and-forward the
	// middle NCUs saturate; with hardware they idle.
	g := graph.Path(9)
	flows := []Flow{
		{Src: 0, Dst: 8, Packets: 30},
		{Src: 8, Dst: 0, Packets: 30},
	}
	hw, err := Run(g, flows, Hardware, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := Run(g, flows, StoreAndForward, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hw.MaxTransitUtilization != 0 {
		t.Fatalf("hardware transit util = %.2f, want 0 (relays idle)", hw.MaxTransitUtilization)
	}
	if sf.MaxTransitUtilization < 0.5 {
		t.Fatalf("store-and-forward transit util %.2f, expected a hot relay", sf.MaxTransitUtilization)
	}
}

func TestRandomFlows(t *testing.T) {
	g := graph.GNP(30, 0.15, 2)
	flows := RandomFlows(g, 10, 5, 7)
	if len(flows) != 10 {
		t.Fatalf("%d flows, want 10", len(flows))
	}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatal("flow with equal endpoints")
		}
		if f.Packets != 5 {
			t.Fatalf("packets = %d, want 5", f.Packets)
		}
	}
	res, err := Run(g, flows, Hardware, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 50 {
		t.Fatalf("delivered = %d, want 50", res.Delivered)
	}
}

func TestNoPathError(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	if _, err := Run(g, []Flow{{Src: 0, Dst: 2, Packets: 1}}, Hardware, 0, 1); err == nil {
		t.Fatal("unreachable destination must error")
	}
}

func TestDisciplineString(t *testing.T) {
	if Hardware.String() != "hardware-ANR" || StoreAndForward.String() != "store-and-forward" ||
		Discipline(9).String() != "discipline(9)" {
		t.Fatal("Discipline.String mismatch")
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	// Direct check of the new per-node busy-time metric via a tiny run.
	g := graph.Path(3)
	flows := []Flow{{Src: 0, Dst: 2, Packets: 4}}
	res, err := Run(g, flows, StoreAndForward, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 relays 4 packets at P=3: 12 units busy. The destination also
	// works 12; finish >= 12.
	if res.Metrics.FinishTime < 12 {
		t.Fatalf("finish = %d, want >= 12", res.Metrics.FinishTime)
	}
	if res.MaxUtilization <= 0 || res.MaxUtilization > 1 {
		t.Fatalf("utilization = %f out of range", res.MaxUtilization)
	}
	_ = core.NodeID(0)
}

// TestFlowValidation pins Run's input contract: empty streams, out-of-range
// endpoints, and self-loops are typed FlowError rejections naming the flow,
// not panics or silent no-ops downstream.
func TestFlowValidation(t *testing.T) {
	g := graph.Path(4)
	bad := []struct {
		name string
		flow Flow
	}{
		{"zero packets", Flow{Src: 0, Dst: 3, Packets: 0}},
		{"negative packets", Flow{Src: 0, Dst: 3, Packets: -5}},
		{"src out of range", Flow{Src: 4, Dst: 1, Packets: 1}},
		{"negative src", Flow{Src: -1, Dst: 1, Packets: 1}},
		{"dst out of range", Flow{Src: 1, Dst: 99, Packets: 1}},
		{"self loop", Flow{Src: 2, Dst: 2, Packets: 1}},
	}
	for _, tc := range bad {
		// The invalid flow rides second so the index lands in the error.
		flows := []Flow{{Src: 0, Dst: 1, Packets: 1}, tc.flow}
		_, err := Run(g, flows, Hardware, 1, 5)
		if err == nil {
			t.Fatalf("%s: accepted %+v", tc.name, tc.flow)
		}
		var fe *FlowError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %v is not a *FlowError", tc.name, err)
		}
		if fe.Index != 1 || fe.Flow != tc.flow {
			t.Fatalf("%s: error blames flow %d (%+v), want 1 (%+v)", tc.name, fe.Index, fe.Flow, tc.flow)
		}
	}
	if _, err := Run(g, []Flow{{Src: 0, Dst: 3, Packets: 2}}, StoreAndForward, 1, 5); err != nil {
		t.Fatalf("valid flow rejected: %v", err)
	}
}

// TestRunRoutesMatchPerFlowBFS: the batch-routed flows must ride exactly the
// routes of the original per-flow g.BFSTree(src).PathFromRoot(dst). At C = 0
// each one-packet flow's walk is fused, so a hop filter sees one route's
// transit nodes after another's, hop for hop — in activation order: a
// source's NCU serializes its flows one P apart, so every source's first flow
// goes (in flow order), then every second flow, and so on.
func TestRunRoutesMatchPerFlowBFS(t *testing.T) {
	g := graph.GNP(80, 0.06, 5)
	if !g.Connected() {
		t.Fatal("scenario graph must be connected")
	}
	flows := RandomFlows(g, 300, 1, 9) // ~4 flows per source: groups interleave in flow order
	var want, got []core.NodeID
	for rank, left := 0, len(flows); left > 0; rank++ {
		seen := map[core.NodeID]int{}
		for _, f := range flows {
			if seen[f.Src]++; seen[f.Src] == rank+1 {
				path := g.BFSTree(f.Src).PathFromRoot(f.Dst)
				want = append(want, path[1:len(path)-1]...)
				left--
			}
		}
	}
	res, err := Run(g, flows, Hardware, 0, 1, sim.WithHopFilter(func(cur core.NodeID, _ any) bool {
		got = append(got, cur)
		return true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(flows) {
		t.Fatalf("delivered %d of %d", res.Delivered, len(flows))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("transit nodes visited differ from the per-flow BFS routes:\n got %v\nwant %v", got, want)
	}
}

// TestDeliveredCountsFlowsSharingDestination: counters live only at a flow's
// destination, keyed by the flow's rank there; flows converging on one node
// (and a node that is a destination of none) must still add up per flow.
func TestDeliveredCountsFlowsSharingDestination(t *testing.T) {
	g := graph.Star(6) // hub 0
	flows := []Flow{
		{Src: 1, Dst: 5, Packets: 3},
		{Src: 2, Dst: 5, Packets: 5},
		{Src: 5, Dst: 1, Packets: 7},
		{Src: 3, Dst: 5, Packets: 11},
	}
	for _, d := range []Discipline{Hardware, StoreAndForward} {
		res, err := Run(g, flows, d, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != 3+5+7+11 {
			t.Fatalf("%v: delivered %d, want 26", d, res.Delivered)
		}
	}
}
