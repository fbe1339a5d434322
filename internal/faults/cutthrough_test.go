package faults_test

import (
	"strings"
	"testing"

	"fastnet/internal/faults"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// TestSoakCutThroughDifferential is the soak-level isolation test: each of
// the three pinned soak configs — plain churn, churn with elections and
// leader crashes, a lossy fabric with the reliable-delivery ledger — renders
// its result line alone, then again while a differently configured soak (two
// event cores, another fault profile, its own option list) runs in the same
// process, and the two lines must be byte-identical. The line aggregates
// every soak observable — invariants I1–I6, convergence rounds, election and
// call accounting, probe counts, the reliable-delivery ledger, the full
// metrics block — and a soak builds dozens of networks three layers down, so
// this is where configuration leaking between concurrent runs would show.
// (The name dates from when the second run was the same soak with the
// per-hop-event walk, selected through a package-wide default; the walk's
// semantics are now checked in internal/sim against the reference engine.)
func TestSoakCutThroughDifferential(t *testing.T) {
	for name, run := range goldenSoaks() {
		t.Run(name, func(t *testing.T) {
			alone, err := run()
			if err != nil {
				t.Fatal(err)
			}
			stop, lines := make(chan struct{}), make(chan []string)
			go func() {
				var got []string
				for running := true; running; {
					res, err := faults.Soak(graph.GNP(24, 0.25, 5), faults.Config{
						Seed: 11, Epochs: 2, Mode: topology.ModeFlood, Flaps: 1, Crashes: 1,
						Shards: 2, Loss: 0.05, Jitter: 0.1, // the fabric on two cores ...
					}, sim.WithShards(2)) // ... and the per-epoch election networks too
					switch {
					case err != nil:
						got = append(got, err.Error())
					case !res.OK():
						got = append(got, res.Violations...)
					default:
						got = append(got, res.Line())
					}
					select {
					case <-stop:
						running = false
					default:
					}
				}
				lines <- got
			}()
			beside, err := run()
			close(stop)
			neighbour := <-lines
			if err != nil {
				t.Fatal(err)
			}
			if alone != beside {
				t.Errorf("soak line moved when another soak ran beside it\n  alone  %s\n  beside %s", alone, beside)
			}
			for _, line := range neighbour {
				if line != neighbour[0] || !strings.HasPrefix(line, "epochs=2 violations=0 ") {
					t.Fatalf("the neighbouring soak is not the same line every time: %q, then %q", neighbour[0], line)
				}
			}
		})
	}
}

// TestSoakSchedStats checks that the DES soak surfaces scheduler
// observability: the zero-hardware-delay fabric should fuse hops, absorb
// same-instant events in the lane and NCU backlogs in the calendar ring.
func TestSoakSchedStats(t *testing.T) {
	g := graph.GNP(20, 0.3, 2)
	res, err := faults.Soak(g, faults.Config{
		Seed: 7, Epochs: 2, Mode: topology.ModeFlood,
		Flaps: 2, Crashes: 1, Downtime: 2, NoElection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	s := res.Sched
	if s.Events == 0 || s.FusedHops == 0 || s.LanePushes == 0 || s.RingPushes == 0 {
		t.Fatalf("implausible scheduler stats on a C=0 soak: %+v", s)
	}
	if rate := s.LaneHitRate(); rate <= 0 || rate > 1 {
		t.Fatalf("lane hit rate %v out of range", rate)
	}
	// The goroutine runtime has no discrete-event scheduler to observe.
	gres, err := faults.Soak(g, faults.Config{
		Seed: 7, Epochs: 1, Mode: topology.ModeFlood, NoElection: true,
		Runtime: "gosim", Flaps: 1, Downtime: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gres.Sched != (sim.SchedStats{}) {
		t.Fatalf("gosim soak reported scheduler stats: %+v", gres.Sched)
	}
}
