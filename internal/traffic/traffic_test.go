package traffic

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fastnet/internal/anr"
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

// TestRefusedSendFailsRun: a caller's WithDmax shorter than a hardware route
// makes the runtime refuse the source's send; the handler's Env.Fail ends the
// run, and Run returns the core.HandlerError, naming the flow. Store-and-forward sends
// one-hop headers only, so the same dmax serves it.
func TestRefusedSendFailsRun(t *testing.T) {
	g := graph.Path(8)
	flows := []Flow{{Src: 1, Dst: 2, Packets: 3}, {Src: 0, Dst: 7, Packets: 3}}
	_, err := Run(g, flows, Hardware, 1, 1, sim.WithDmax(2))
	var he *core.HandlerError
	if !errors.As(err, &he) || !errors.Is(err, anr.ErrPathTooLong) || !strings.Contains(err.Error(), "flow 1") {
		t.Fatalf("hardware route past dmax: err %v, want a core.HandlerError wrapping anr.ErrPathTooLong, naming flow 1", err)
	}
	res, err := Run(g, flows, StoreAndForward, 1, 1, sim.WithDmax(2))
	if err != nil || res.Delivered != 6 {
		t.Fatalf("store-and-forward under dmax 2: delivered %d, err %v; want 6, nil", res.Delivered, err)
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

// TestRandomFlowsTinyGraph: a graph with fewer than two nodes has no flow
// with distinct endpoints; RandomFlows must say so at once rather than draw
// forever (n = 1) or panic in the rng (n = 0).
func TestRandomFlowsTinyGraph(t *testing.T) {
	for n := 0; n <= 1; n++ {
		done := make(chan []Flow, 1)
		go func() { done <- RandomFlows(graph.New(n), 5, 3, 1) }()
		select {
		case flows := <-done:
			if len(flows) != 0 {
				t.Fatalf("n = %d: got flows %v", n, flows)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("n = %d: RandomFlows did not return", n)
		}
	}
	if flows := RandomFlows(graph.New(2), 5, 3, 1); len(flows) != 5 {
		t.Fatalf("n = 2: %d flows, want 5", len(flows))
	}
}

// TestRunUnderDuplication: a flow's packets, and every duplicate the fault
// plane makes of them, share the flow's packet states. The numbers are those
// of the handler that allocated a fresh message per packet and per hop
// (commit e92ea51), so sharing changed nothing a duplicate can observe.
func TestRunUnderDuplication(t *testing.T) {
	g := graph.GNP(60, 0.08, 3)
	flows := RandomFlows(g, 40, 12, 11)
	for _, tc := range []struct {
		d                  Discipline
		delivered, transit int
		metrics            string
	}{
		{Hardware, 747, 0,
			"hops=1587 deliveries=747 (copies=0) injections=40 linkEvents=0 sends=480 packets=480 drops=0 time=100 faults(drop=0 dup=267 corrupt=0 jitter=0)"},
		{StoreAndForward, 746, 359,
			"hops=1572 deliveries=1572 (copies=0) injections=40 linkEvents=0 sends=1306 packets=1306 drops=0 time=168 faults(drop=0 dup=266 corrupt=0 jitter=0)"},
	} {
		res, err := Run(g, flows, tc.d, 1, 2, sim.WithSeed(5), sim.WithMsgFaults(core.MsgFaults{Dup: 0.2}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != tc.delivered || res.TransitSyscalls != int64(tc.transit) || res.Metrics.String() != tc.metrics {
			t.Errorf("%v: delivered %d, transit syscalls %d, metrics %q\nwant     %d, %d, %q",
				tc.d, res.Delivered, res.TransitSyscalls, res.Metrics.String(), tc.delivered, tc.transit, tc.metrics)
		}
	}
}

// TestRelayAllocsPerFlow: Run allocates per flow and per network, not per hop
// or per node. The same 16 one-packet flows, half each way, run over a path 8
// hops long and one 64 hops long; the longer route may cost at most one more
// object per flow (a hardware packet's 65-hop reverse route is too long for
// the engine's shared buffers and gets its own) plus a few for the longer
// route searches — not one per extra hop (a store-and-forward chain's one-hop
// headers) or per extra node (the protocol instances).
func TestRelayAllocsPerFlow(t *testing.T) {
	const flows = 16
	allocs := func(d Discipline, hops int) float64 {
		g := graph.Path(hops + 1)
		fl := make([]Flow, flows)
		for i := range fl {
			fl[i] = Flow{Src: 0, Dst: core.NodeID(hops), Packets: 1}
			if i%2 == 1 {
				fl[i].Src, fl[i].Dst = fl[i].Dst, fl[i].Src
			}
		}
		return testing.AllocsPerRun(3, func() {
			if res, err := Run(g, fl, d, 1, 1); err != nil || res.Delivered != flows {
				t.Fatalf("%v over %d hops: delivered %d of %d (%v)", d, hops, res.Delivered, flows, err)
			}
		})
	}
	for _, d := range []Discipline{Hardware, StoreAndForward} {
		short, long := allocs(d, 8), allocs(d, 64)
		t.Logf("%v: %.0f objects over 8 hops, %.0f over 64", d, short, long)
		if long-short > flows+8 {
			t.Errorf("%v: %.0f objects over 64 hops, %.0f over 8: %.0f more for 16 flows", d, long, short, long-short)
		}
	}
}

// TestRelayAllocsPerPacket pins the forwarding handler's allocation cost:
// doubling every flow's packet count (routes, headers and packet states are
// per flow and cancel in the difference) adds at most 0.1 heap objects per
// extra packet under both disciplines. The handler itself adds none; what
// remains is the scheduler's chunked pools growing with the backlog.
func TestRelayAllocsPerPacket(t *testing.T) {
	g := graph.GNP(256, 6.0/256, 3)
	const flows, base = 256, 45
	mallocs := func(d Discipline, packets int) uint64 {
		t.Helper()
		fl := RandomFlows(g, flows, packets, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(g, fl, d, 1, 1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != flows*packets {
			t.Fatalf("%v: delivered %d of %d", d, res.Delivered, flows*packets)
		}
		return after.Mallocs - before.Mallocs
	}
	for _, d := range []Discipline{Hardware, StoreAndForward} {
		a, b := mallocs(d, base), mallocs(d, 2*base)
		perPacket := (float64(b) - float64(a)) / (flows * base)
		t.Logf("%v: %d allocs at %d packets a flow, %d at %d: %.4f allocs/packet", d, a, base, b, 2*base, perPacket)
		if perPacket > 0.1 {
			t.Errorf("%v: %.3f allocs per extra packet, want <= 0.1", d, perPacket)
		}
	}
}
