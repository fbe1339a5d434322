package gosim

import (
	"runtime"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/reliable"
)

// reliableSender turns an injected int into a reliable send to dst.
type reliableSender struct {
	*reliable.Node
	dst core.NodeID
}

func (p reliableSender) Deliver(env core.Env, pkt core.Packet) {
	if n, ok := pkt.Payload.(int); ok && pkt.Injected {
		if err := p.E.SendRoute(env, p.dst, routeTo(env, p.dst), n); err != nil {
			panic(err)
		}
		return
	}
	p.Node.Deliver(env, pkt)
}

// routeTo builds a direct route to an adjacent node.
func routeTo(env core.Env, dst core.NodeID) anr.Header {
	pt, ok := env.PortToward(dst)
	if !ok {
		panic("no port toward dst")
	}
	return anr.Direct([]anr.ID{pt.Local})
}

// TestShutdownNoLeakUnderFaults: shutting the runtime down with the lossy-link
// model active and reliable retransmissions still pending must not leak
// goroutines — every node loop and every in-flight jittered delivery winds
// down. Run under -race in CI.
func TestShutdownNoLeakUnderFaults(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		g := graph.Path(2)
		nodes := make([]*reliable.Node, 2)
		net := New(g, func(id core.NodeID) core.Protocol {
			nodes[id] = reliable.NewNode(id, reliable.Config{RTO: 1})
			return reliableSender{Node: nodes[id], dst: 1 - id}
		}, WithMsgFaults(core.MsgFaults{Drop: 0.9, Dup: 0.05, Jitter: 0.05}))
		for i := 0; i < 8; i++ {
			net.Inject(0, i)
		}
		// A couple of retransmission rounds, then shut down with frames
		// still pending (Drop=0.9 all but guarantees a backlog).
		for i := 0; i < 3; i++ {
			if err := net.AwaitQuiescence(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			net.Inject(0, reliable.Tick{})
		}
		net.Shutdown()
	}
	// Goroutine counts are noisy (test runner, finalizers); poll for decay
	// back to near the baseline instead of demanding exact equality.
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
