package faults

import (
	"fmt"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/load"
	"fastnet/internal/sim"
)

// Result aggregates a soak run. All counters are deterministic functions of
// (graph, Config) on the discrete-event runtime, so Line is byte-identical
// across reruns of the same seed.
type Result struct {
	Epochs      int // churn epochs completed with all invariants held
	Violations  []string
	Metrics     core.Metrics // the soak network (elections run separately)
	FaultFlips  int          // concrete link flips applied
	ConvRounds  int          // broadcast rounds spent re-converging (sum)
	ConvMax     int          // worst single-epoch round count
	Elections   int
	ReelectTime core.Time // re-election latency, summed (DES virtual time)
	ReelectMax  core.Time
	ReelectMsgs int64 // algorithm messages across all elections
	CallsSetUp  int
	CallsFailed int // calls torn down by injected failures
	CallsTorn   int // surviving calls torn down explicitly
	ProbesSent  int
	ProbesDown  int // probes over down links (must all be blocked)

	// Reliable-delivery ledger totals (I6); all zero unless Config.Reliable
	// is set. RelSent counts distinct ledger tokens, RelRetrans the extra
	// frames the lossy fabric cost, RelDupes/RelBadSum the receiver-side
	// discards that kept delivery exactly-once.
	RelSent    int64
	RelRetrans int64
	RelDupes   int64
	RelBadSum  int64

	// Reordered-election totals (I7); all zero unless Config.Reorder is set.
	// ReorderRecoveries counts the election's graceful degradations (stale
	// trees survived by fallback routing or the flood transport).
	ReorderElections  int
	ReorderRecoveries int64

	// Gray-failure totals (I8); all zero unless Config.Slow or Config.Stall
	// is set. GraySuspects counts false suspicions raised by the adaptive
	// detector against a live-but-gray leader — any nonzero count is an I8
	// violation, so a passing run always reports suspects=0 (the counter
	// exists so a failing line shows how many detectors were fooled).
	GrayElections int
	GrayStalls    int
	GraySuspects  int

	// Open-loop totals (I9); untouched unless Config.Rate is set. OL merges
	// every epoch's engine run — ledger counters, latency recorders, runtime
	// metrics — and OLRuns counts the runs merged, gating the openloop block
	// of Line() so classic soak lines render exactly as before the load
	// plane existed.
	OL     load.Stats
	OLRuns int

	// Det snapshots the worst-case (highest-phi) adaptive detector observed
	// across the I8 scenarios, leader rewritten to the soak graph's node ID.
	// Measurement only, like Sched: not part of Line(), printed by soak -v.
	Det election.DetectorStats

	// Sched snapshots the discrete-event scheduler's observability counters
	// (zero on the goroutine runtime). Measurement only — deliberately not
	// part of Line(), whose byte-identity contract is over simulation
	// observables, not over how cheaply the scheduler produced them.
	Sched sim.SchedStats
}

// OK reports whether every epoch held every invariant.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Line renders the run on one line (the byte-identical repro check target).
// The reliable-ledger block only appears when the ledger ran, so fault-free
// soak lines render exactly as they did before the lossy-link model existed.
func (r *Result) Line() string {
	rel := ""
	if r.RelSent > 0 {
		rel = fmt.Sprintf(" reliable(sent=%d retx=%d dup=%d badsum=%d)",
			r.RelSent, r.RelRetrans, r.RelDupes, r.RelBadSum)
	}
	if r.ReorderElections > 0 {
		rel += fmt.Sprintf(" reorder(elections=%d recoveries=%d)",
			r.ReorderElections, r.ReorderRecoveries)
	}
	if r.GrayElections > 0 || r.GrayStalls > 0 {
		rel += fmt.Sprintf(" gray(elections=%d stalls=%d suspects=%d)",
			r.GrayElections, r.GrayStalls, r.GraySuspects)
	}
	if r.OLRuns > 0 {
		rel += fmt.Sprintf(" openloop(gen=%d del=%d blocked=%d dropped=%d p50=%d p99=%d p999=%d)",
			r.OL.Generated, r.OL.Delivered, r.OL.Blocked, r.OL.Dropped,
			r.OL.Setup.Quantile(0.5), r.OL.Setup.Quantile(0.99), r.OL.Setup.Quantile(0.999))
	}
	return fmt.Sprintf("epochs=%d violations=%d flips=%d conv(sum=%d,max=%d) elections=%d reelect(time=%d,max=%d,msgs=%d) calls(setup=%d,failed=%d,torn=%d) probes(sent=%d,down=%d)%s | %s",
		r.Epochs, len(r.Violations), r.FaultFlips, r.ConvRounds, r.ConvMax,
		r.Elections, r.ReelectTime, r.ReelectMax, r.ReelectMsgs,
		r.CallsSetUp, r.CallsFailed, r.CallsTorn, r.ProbesSent, r.ProbesDown,
		rel, r.Metrics)
}
