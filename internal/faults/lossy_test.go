package faults

import (
	"strings"
	"testing"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// lossyCfg is a soak config with every message-fault kind live plus the
// reliable-delivery ledger, on top of the usual link churn.
func lossyCfg(seed int64, epochs int) Config {
	return Config{
		Seed:        seed,
		Epochs:      epochs,
		Flaps:       2,
		Crashes:     1,
		Calls:       2,
		LeaderCrash: 0.5,
		Loss:        0.25,
		Dup:         0.1,
		Corrupt:     0.1,
		Jitter:      0.1,
		Reliable:    6,
		BurstEvery:  2,
	}
}

func TestSoakLossyDES(t *testing.T) {
	g := graph.GNP(14, 0.35, 3)
	res, err := Soak(g, lossyCfg(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.RelSent != int64(4*6) {
		t.Fatalf("RelSent = %d, want %d", res.RelSent, 4*6)
	}
	// The profile is aggressive enough that the ARQ must have worked for a
	// living: retransmissions and receiver-side discards both nonzero.
	if res.RelRetrans == 0 {
		t.Fatalf("no retransmissions under 25%% loss: %s", res.Line())
	}
	if res.RelDupes == 0 && res.RelBadSum == 0 {
		t.Fatalf("no receiver-side discards under dup+corrupt faults: %s", res.Line())
	}
	if res.Metrics.FaultDrops == 0 || res.Metrics.FaultDups == 0 || res.Metrics.FaultCorrupts == 0 {
		t.Fatalf("fault model fired too little: %s", res.Metrics)
	}
	if !strings.Contains(res.Line(), "reliable(sent=") {
		t.Fatalf("Line misses the reliable ledger block: %s", res.Line())
	}
}

func TestSoakLossyDESDeterministic(t *testing.T) {
	g := graph.GNP(12, 0.4, 5)
	a, err := Soak(g, lossyCfg(9, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(g, lossyCfg(9, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Line() != b.Line() {
		t.Fatalf("same seed, different lossy runs:\n%s\n%s", a.Line(), b.Line())
	}
	c, err := Soak(g, lossyCfg(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Line() == c.Line() {
		t.Fatalf("different seeds, identical lossy runs: %s", a.Line())
	}
}

func TestSoakLossyGosim(t *testing.T) {
	g := graph.GNP(10, 0.4, 6)
	cfg := lossyCfg(4, 3)
	cfg.Runtime = "gosim"
	cfg.Timeout = 60 * time.Second
	res, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.RelSent == 0 || res.RelRetrans == 0 {
		t.Fatalf("ledger barely ran: %s", res.Line())
	}
}

// TestSoakFaultFreeLineUnchanged pins the compatibility contract: with no
// lossy profile configured the soak must behave — and render — exactly as it
// did before the lossy-link model existed (no reliable block, no fault
// counters, no extra repro flags).
func TestSoakFaultFreeLineUnchanged(t *testing.T) {
	g := graph.GNP(10, 0.4, 4)
	cfg := Config{Seed: 7, Epochs: 2, Flaps: 2, Crashes: 1, Calls: 1}
	res, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	line := res.Line()
	if strings.Contains(line, "reliable(") || strings.Contains(line, "faults(") {
		t.Fatalf("fault-free line grew new blocks: %s", line)
	}
	if repro := cfg.Repro("gnp", 10); strings.Contains(repro, "-loss") {
		t.Fatalf("fault-free repro grew lossy flags: %s", repro)
	}
}

func TestMsgFaultSchedules(t *testing.T) {
	base := core.MsgFaults{Drop: 0.1, Dup: 0.05}
	c := constantFaults{P: base}
	for _, e := range []int{0, 3, 17} {
		if got := c.Profile(e); got != base {
			t.Fatalf("constantFaults.Profile(%d) = %+v, want %+v", e, got, base)
		}
	}
	b := burstyFaults{Base: base, Every: 3, Scale: 2}
	if got := b.Profile(0); got != base {
		t.Fatalf("epoch 0 should be calm, got %+v", got)
	}
	burst := b.Profile(2)
	if burst.Drop != 0.2 || burst.Dup != 0.1 {
		t.Fatalf("epoch 2 should burst 2x, got %+v", burst)
	}
	if got := b.Profile(3); got != base {
		t.Fatalf("epoch 3 should be calm again, got %+v", got)
	}
	// Scaling saturates at probability 1.
	sat := burstyFaults{Base: core.MsgFaults{Drop: 0.6}, Every: 1, Scale: 5}.Profile(0)
	if sat.Drop > 1 {
		t.Fatalf("burst scaled past probability 1: %+v", sat)
	}
}
