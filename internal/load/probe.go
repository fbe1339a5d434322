package load

import (
	"fmt"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// ProbeConfig parameterizes the max-sustainable-rate search. Template is
// the scenario under test (its Rate is ignored); a rate is sustainable when
// at least SuccessFrac of generated calls are delivered.
type ProbeConfig struct {
	Template Config
	// MinRate, MaxRate bracket the search (calls per tick). MinRate must be
	// sustainable-or-probed: if even MinRate fails, the probe returns 0.
	MinRate, MaxRate float64
	// SuccessFrac is the delivered fraction defining "sustainable"
	// (default 0.99).
	SuccessFrac float64
	// Iters is the number of bisection steps (default 10, giving a
	// (MaxRate-MinRate)/2^10 resolution).
	Iters int
}

// ProbeResult is one probe outcome: the knee rate and the runs that found it.
type ProbeResult struct {
	// Rate is the highest probed sustainable rate (0 if MinRate already
	// fails).
	Rate float64
	// Runs counts engine runs spent.
	Runs int
	// At is the Stats of the last sustainable run (nil if none).
	At *Stats
}

// MaxSustainableRate binary-searches the offered-load knee: the highest
// arrival rate the scenario still serves with the required delivered
// fraction. Each probe is one deterministic engine run (same seed, so the
// probe itself is reproducible bit for bit), built with opts like Run's.
func MaxSustainableRate(g *graph.Graph, pc ProbeConfig, opts ...sim.Option) (*ProbeResult, error) {
	if pc.MinRate <= 0 || pc.MaxRate < pc.MinRate {
		return nil, fmt.Errorf("load: probe needs 0 < MinRate <= MaxRate, have [%g, %g]", pc.MinRate, pc.MaxRate)
	}
	frac := pc.SuccessFrac
	if frac <= 0 {
		frac = 0.99
	}
	iters := pc.Iters
	if iters <= 0 {
		iters = 10
	}
	res := &ProbeResult{}
	// Every step runs the same graph, Pairs, Zipf and Seed, so all share the
	// pair table the first one builds (after its config is known valid, as
	// in Run).
	var pairs *PairTable
	probe := func(rate float64) (bool, error) {
		cfg := pc.Template
		cfg.Rate = rate
		if pairs == nil {
			err := cfg.validate()
			if err == nil {
				pairs, err = cfg.pairTable(g, core.NewPortMap(g))
			}
			if err != nil {
				return false, err
			}
		}
		s, err := run(g, cfg, pairs, opts...)
		if err != nil {
			return false, err
		}
		res.Runs++
		ok := s.Generated == 0 || float64(s.Delivered) >= frac*float64(s.Generated)
		if ok {
			res.Rate = rate
			res.At = s
		}
		return ok, nil
	}
	ok, err := probe(pc.MinRate)
	if err != nil {
		return nil, err
	}
	if !ok {
		return res, nil
	}
	lo, hi := pc.MinRate, pc.MaxRate
	if ok, err = probe(hi); err != nil {
		return nil, err
	} else if ok {
		return res, nil
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return res, nil
}
