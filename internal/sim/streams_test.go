package sim

import (
	"fmt"
	"reflect"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// streamNet builds a 16-node shard-mode network at seed whose streams the
// tests below draw from directly.
func streamNet(seed int64) *Network {
	return New(graph.Ring(16), func(id core.NodeID) core.Protocol { return &collectProto{id: id} },
		WithShards(1), WithSeed(seed))
}

// draws returns the first k Int63 draws of node v's hardware or fault stream.
func draws(net *Network, v core.NodeID, fault bool, k int) string {
	out := make([]int64, k)
	for i := range out {
		r := net.hwSrc(v)
		if fault {
			r = net.faultSrc(v)
		}
		out[i] = r.Int63()
	}
	return fmt.Sprint(out)
}

// TestNodeStateSize pins what a node costs: at most 80 bytes in every mode.
// Shard mode's streams and counters live in nodeStreams, 16 bytes per stream.
func TestNodeStateSize(t *testing.T) {
	nd, st := reflect.TypeOf(node{}).Size(), reflect.TypeOf(nodeStreams{}).Size()
	t.Logf("node %d B; shard-mode streams and counters %d B", nd, st)
	if nd > 80 {
		t.Errorf("node is %d bytes, want <= 80", nd)
	}
	if st > 56 {
		t.Errorf("nodeStreams is %d bytes, want <= 56 (two 16-byte PCGs and three counters)", st)
	}
}

// TestShardStreamsDistinct: every node's hardware and fault streams draw
// sequences of their own, over several seeds, and a second network at the
// same seed draws each again though it visits the streams in another order.
func TestShardStreamsDistinct(t *testing.T) {
	type stream struct {
		v     core.NodeID
		fault bool
	}
	seen := map[string]string{}
	for _, seed := range []int64{1, 2, 42, -7} {
		net, first := streamNet(seed), map[stream]string{}
		for v := core.NodeID(0); v < 16; v++ {
			for _, fault := range []bool{false, true} {
				got := draws(net, v, fault, 4)
				name := fmt.Sprintf("seed %d node %d fault=%v", seed, v, fault)
				if prev, dup := seen[got]; dup {
					t.Errorf("%s draws what %s drew: %s", name, prev, got)
				}
				seen[got], first[stream{v, fault}] = name, got
			}
		}
		again := streamNet(seed)
		for v := core.NodeID(15); v >= 0; v-- {
			for _, fault := range []bool{true, false} {
				if got, want := draws(again, v, fault, 4), first[stream{v, fault}]; got != want {
					t.Errorf("seed %d node %d fault=%v: %s, then %s on a second network", seed, v, fault, want, got)
				}
			}
		}
	}
}

// chi2 is Pearson's statistic of counts against a uniform expectation.
func chi2(counts []int, n int) float64 {
	want := float64(n) / float64(len(counts))
	var x float64
	for _, c := range counts {
		x += (float64(c) - want) * (float64(c) - want) / want
	}
	return x
}

// TestShardStreamsUniform holds Int63n for small bounds and Float64 to a
// coarse chi-square check (critical values at p = 0.001), both along one
// node's stream and across the first draws of 20,000 nodes' streams — the
// second is what the seeding decides.
func TestShardStreamsUniform(t *testing.T) {
	const n = 20_000
	for _, fault := range []bool{false, true} {
		for _, c := range []struct {
			bins int
			crit float64
		}{{2, 10.83}, {3, 13.82}, {7, 22.46}, {10, 27.88}} {
			along, across := streamNet(3), New(graph.Ring(n), func(id core.NodeID) core.Protocol { return &collectProto{id: id} }, WithShards(1), WithSeed(3))
			for _, mode := range []string{"along one stream", "across nodes"} {
				counts := make([]int, c.bins)
				for i := 0; i < n; i++ {
					net, v := along, core.NodeID(5)
					if mode == "across nodes" {
						net, v = across, core.NodeID(i)
					}
					r := net.hwSrc(v)
					if fault {
						r = net.faultSrc(v)
					}
					if c.bins == 10 {
						counts[int(r.Float64()*10)]++ // Float64 in tenths
					} else {
						counts[r.Int63n(int64(c.bins))]++
					}
				}
				if x := chi2(counts, n); x > c.crit {
					t.Errorf("fault=%v, %d bins, %s: chi-square %.2f > %.2f, counts %v", fault, c.bins, mode, x, c.crit, counts)
				}
			}
		}
	}
}
