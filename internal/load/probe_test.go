package load

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// TestProbeFindsKnee: a ring with a tight per-endpoint cap serves low rates
// cleanly and blocks heavily at high rates, so the bisection must land
// strictly inside the bracket — and do so reproducibly.
func TestProbeFindsKnee(t *testing.T) {
	g := graph.Ring(12)
	pc := ProbeConfig{
		Template:    Config{Seed: 3, Calls: 3000, Holding: 200, NCUCap: 4},
		MinRate:     0.02,
		MaxRate:     4.0,
		SuccessFrac: 0.95,
		Iters:       6,
	}
	a, err := MaxSustainableRate(g, pc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rate <= 0 {
		t.Fatalf("probe found no sustainable rate (runs=%d)", a.Runs)
	}
	if a.Rate >= pc.MaxRate {
		t.Fatalf("probe claims the saturating rate %g is sustainable", a.Rate)
	}
	if a.At == nil || a.At.Generated == 0 {
		t.Fatalf("probe returned no witness run")
	}
	b, err := MaxSustainableRate(g, pc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rate != b.Rate || a.Runs != b.Runs {
		t.Fatalf("probe not deterministic: %g/%d vs %g/%d", a.Rate, a.Runs, b.Rate, b.Runs)
	}
	// The steps share one pair table; the witness must be what a run that
	// builds its own reports.
	cfg := pc.Template
	cfg.Rate = a.Rate
	alone, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.At, alone) {
		t.Fatalf("witness at rate %g differs from a standalone run:\n got %+v\nwant %+v", a.Rate, a.At, alone)
	}
}

// TestProbeUnsustainableFloor: when even MinRate fails the probe reports 0
// rather than inventing a knee.
func TestProbeUnsustainableFloor(t *testing.T) {
	g := graph.Ring(8)
	pc := ProbeConfig{
		// Drop forces ~every multi-hop setup to fail somewhere.
		Template:    Config{Seed: 1, Calls: 500, Holding: 50, Faults: faultsAllDrop()},
		MinRate:     0.1,
		MaxRate:     1.0,
		SuccessFrac: 0.99,
		Iters:       4,
	}
	res, err := MaxSustainableRate(g, pc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate != 0 {
		t.Fatalf("probe found rate %g on an all-dropping fabric", res.Rate)
	}
	if res.Runs != 1 {
		t.Fatalf("probe kept searching after the floor failed: %d runs", res.Runs)
	}
}

func faultsAllDrop() (f core.MsgFaults) { f.Drop = 0.9; return }

// TestProbeSurfacesConfigError: a bracket or template the engine rejects
// comes back from the probe as the engine's typed *ConfigError (NaN brackets
// pass the probe's own ordering check, since NaN compares false).
func TestProbeSurfacesConfigError(t *testing.T) {
	g := graph.Ring(12)
	ok := Config{Seed: 3, Calls: 200, Holding: 50}
	badZipf := ok
	badZipf.Zipf = math.Inf(1)
	for _, tc := range []struct {
		field string
		pc    ProbeConfig
	}{
		{"Rate", ProbeConfig{Template: ok, MinRate: math.NaN(), MaxRate: 1}},
		{"Rate", ProbeConfig{Template: ok, MinRate: 0.01, MaxRate: math.Inf(1)}},
		{"Zipf", ProbeConfig{Template: badZipf, MinRate: 0.01, MaxRate: 1}},
	} {
		res, err := MaxSustainableRate(g, tc.pc)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Fatalf("bracket [%g, %g]: got result %v, err %v; want a *ConfigError on %s",
				tc.pc.MinRate, tc.pc.MaxRate, res, err, tc.field)
		}
	}
}
