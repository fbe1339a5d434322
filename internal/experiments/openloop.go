package experiments

import (
	"fmt"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/load"
	"fastnet/internal/runner"
)

// e24OpenLoop sweeps the open-loop load plane across offered rate and
// capacity regime on one GNP-256 fabric. Every run offers the same Zipf-skewed
// call mix at a fixed arrival rate; what varies is what the fabric is allowed
// to refuse:
//
//   - uncapped: infinite NCU queues and links — the fabric absorbs any rate,
//     and only the setup-latency quantiles move (queueing is invisible to the
//     ledger, visible to the clock);
//   - ncu: each endpoint admits at most 8 concurrent calls and each NCU
//     bounds its activation queue at 16 — overload turns into blocked calls
//     at admission, the §2 "NCU refuses the system call" regime;
//   - link: admission is loose (64 per endpoint) but every link meters
//     forwarding at 0.25 packets per tick (burst 4) — overload inside the
//     fabric turns into dropped setups, the congestive-loss regime.
//
// The interesting shape: the uncapped rows keep delivered == generated at
// every rate while p99 setup latency climbs with the backlog; the capped rows
// hold the latency quantiles roughly flat and pay in blocked/dropped calls
// instead. Latency or loss — the capacity model lets the experiment show the
// trade instead of asserting it. The notes carry the max-sustainable-rate
// knee for each capped regime, found by the bisection probe over the same
// scenario (uncapped is sustainable at any rate by invariant I9b).
func e24OpenLoop(env Env) (*Table, error) {
	const (
		n       = 256
		seed    = 7
		calls   = 20000
		holding = 200
		skew    = 1.1
	)
	g := graph.GNP(n, 6.0/n, seed)
	base := load.Config{Seed: seed, Calls: calls, Holding: holding, Zipf: skew}
	type regime struct {
		name string
		cfg  load.Config
	}
	regimes := []regime{
		{"uncapped", base},
		{"ncu", func() load.Config {
			c := base
			c.NCUCap = 8
			c.Capacity = core.Capacity{NCUQueue: 16}
			return c
		}()},
		{"link", func() load.Config {
			c := base
			c.NCUCap = 64
			c.Capacity = core.Capacity{NCUQueue: 64, LinkRate: 0.25, LinkBurst: 4}
			return c
		}()},
	}
	rates := []float64{0.5, 1, 2, 4}

	t := &Table{
		ID:      "E24",
		Title:   "Open-loop overload: latency vs blocking across capacity regimes",
		Columns: []string{"cap", "rate", "gen", "del", "blocked", "dropped", "p50", "p99", "p999"},
		Notes: []string{
			fmt.Sprintf("fabric: GNP(%d, 6/%d) seed %d; each row one open-loop run of %d calls, mean holding %d ticks, Zipf %.1f endpoint skew", n, n, seed, calls, holding, skew),
			"uncapped: infinite queues — overload is latency; ncu: endpoint admission 8 + NCU queue 16 — overload is blocking; link: loose admission (64) with 0.25/tick link buckets (burst 4) — overload is loss",
			"p50/p99/p999 are call-setup latency quantiles in ticks from the zero-allocation log-bucket recorder",
		},
	}

	if _, err := sweep(env, t, grid(regimes, rates), func(p pair[regime, float64]) ([]any, error) {
		name, cfg := p.a.name, p.a.cfg
		cfg.Rate = p.b
		s, err := load.Run(g, cfg, env.Opts...)
		if err != nil {
			return nil, fmt.Errorf("%s rate %g: %w", name, cfg.Rate, err)
		}
		return []any{name, cfg.Rate, s.Generated, s.Delivered, s.Blocked, s.Dropped,
			s.Setup.Quantile(0.5), s.Setup.Quantile(0.99), s.Setup.Quantile(0.999)}, nil
	}); err != nil {
		return nil, err
	}

	// The knee: bisect the highest rate each capped regime still serves at
	// >= 99% delivered. The probe reuses the row scenario with fewer calls
	// per run — it is a search, not a measurement, and 24 extra full-size
	// runs would dominate the experiment's cost.
	probes, err := runner.Map(env.Workers, regimes[1:], func(r regime) (*load.ProbeResult, error) {
		tpl := r.cfg
		tpl.Calls = calls / 4
		return load.MaxSustainableRate(g, load.ProbeConfig{
			Template: tpl, MinRate: 0.05, MaxRate: 8, SuccessFrac: 0.99, Iters: 8,
		}, env.Opts...)
	})
	if err != nil {
		return nil, err
	}
	for i, pr := range probes {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"max sustainable rate, %s regime (>= 99%% delivered, 8-step bisection in [0.05, 8], %d runs of %d calls): %.3f calls/tick",
			regimes[i+1].name, pr.Runs, calls/4, pr.Rate))
	}
	return t, nil
}
