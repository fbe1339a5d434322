package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"
)

const (
	minReps    = 41 // p50 then has 20 samples beyond it and p75 has 10
	setupReps  = 5  // set-ups per run; setup_s is their median
	tracedReps = 5  // traced (and interleaved untraced) reps of a -trace run
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload produced. Its contract
// subset (correct, attempted, failed, metrics) is the last line of stdout;
// the whole of it is what -o writes and -compare reads.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Reps      int                    `json:"reps"`
	Host      hostInfo               `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	OpsPerRep int64                  `json:"ops_per_rep"`
	SimDigest string                 `json:"sim_digest"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runner runs reps of one scenario and holds every one of them to the first
// rep's simulated statistics: a deterministic simulator repeats them exactly,
// so any difference is a failed rep. A failed check fails the rep, never the
// run.
type runner struct {
	rep       *report
	reference *outcome // the first successful rep
}

// do runs one rep under measure and books its outcome. ok is false when the
// rep failed a check; its sample must then be left out of the statistics.
func (r *runner) do(sc *scenario, tr *tracer) (s sample, ok bool) {
	var out outcome
	s, err := measure(func() (err error) {
		out, err = sc.rep(tr)
		return err
	})
	r.rep.Attempted++
	switch {
	case err != nil:
	case r.reference == nil:
		r.reference = &out
		sum := sha256.Sum256([]byte(out.ledger))
		r.rep.SimDigest = hex.EncodeToString(sum[:])
		r.rep.OpsPerRep = out.ops
	case out.ops != r.reference.ops:
		err = fmt.Errorf("%d model operations, the first rep did %d", out.ops, r.reference.ops)
	case out.ledger != r.reference.ledger:
		err = fmt.Errorf("simulated statistics differ from the first rep's:\n%s\n%s", out.ledger, r.reference.ledger)
	}
	if err != nil {
		r.rep.Failed++
		if len(r.rep.Failures) < 5 {
			r.rep.Failures = append(r.rep.Failures, fmt.Sprintf("rep %d: %v", r.rep.Attempted, err))
		}
		return s, false
	}
	return s, true
}

// column extracts one field of the samples.
func column(ss []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

func wallOf(s sample) float64 { return s.wall }

// runTimed is the untraced run behind the end-to-end metrics: setupReps
// set-ups (input generation plus one warm-up rep each), then timed reps of
// the last set-up until budget has passed and at least reps are in.
func runTimed(name string, seed int64, div, reps int, budget time.Duration) (*report, error) {
	r := &runner{rep: &report{Workload: name, Seed: seed}}
	var sc *scenario
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if sc, err = buildScenario(name, seed, div); err != nil {
			return nil, err
		}
		r.do(sc, nil)
		setups = append(setups, time.Since(t0).Seconds())
	}
	var good []sample
	for start := time.Now(); len(good) < reps || time.Since(start) < budget; {
		if s, ok := r.do(sc, nil); ok {
			good = append(good, s)
		}
		if r.rep.Failed > reps {
			break // nothing here is going to pass; report it
		}
	}
	r.rep.Reps = len(good)
	wall := column(good, wallOf)
	p50, err := percentile(wall, 0.5, minBeyond)
	if err != nil {
		return r.rep, fmt.Errorf("wall_s_p50: %w (%d of %d reps failed)", err, r.rep.Failed, r.rep.Attempted)
	}
	p75, err := percentile(wall, 0.75, minBeyond)
	if err != nil {
		return r.rep, fmt.Errorf("wall_s_p75: %w", err)
	}
	r.rep.Metrics = map[string]metricValue{
		"setup_s":          {Value: median(setups)},
		"wall_s_p50":       {Value: p50},
		"wall_s_p75":       {Value: p75},
		"ops_per_s":        {Value: float64(r.rep.OpsPerRep) / p50},
		"cpu_s_p50":        {Value: median(column(good, func(s sample) float64 { return s.cpu }))},
		"allocs_per_run":   {Value: median(column(good, func(s sample) float64 { return s.mallocs }))},
		"alloc_mb_per_run": {Value: median(column(good, func(s sample) float64 { return s.allocMB }))},
		"peak_rss_mb":      {Value: peakRSSMB()},
	}
	return r.rep, nil
}

// runTraced is the -trace run behind the per-layer metrics: after one
// set-up, tracedReps untraced reps as in a -trace 0 run, then as many with
// the spans on (their ratio is the tracing overhead), then the standalone
// probes and the workload's own comparisons. A layer metric that does not apply to the
// workload reads 0.
func runTraced(name string, seed int64, div int) (*report, error) {
	r := &runner{rep: &report{Workload: name, Seed: seed, Trace: true}}
	sc, err := buildScenario(name, seed, div)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		r.do(sc, nil) // warm-ups; the first is the reference for every later rep
	}
	var plain, traced []sample
	var perRep []map[string]float64
	for i := 0; i < tracedReps; i++ {
		if s, ok := r.do(sc, nil); ok {
			plain = append(plain, s)
		}
	}
	var gc0, gc1 runtime.MemStats
	for i := 0; i < tracedReps; i++ {
		tr := newTracer()
		runtime.ReadMemStats(&gc0)
		s, ok := r.do(sc, tr)
		runtime.ReadMemStats(&gc1)
		if ok {
			traced = append(traced, s)
			v := tr.layerValues()
			v["go.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
			v["go.gc_pause_s"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e9
			perRep = append(perRep, v)
		}
	}
	r.rep.Reps = len(traced)
	if len(plain) == 0 || len(traced) == 0 {
		return r.rep, fmt.Errorf("no rep passed its checks (%d of %d failed)", r.rep.Failed, r.rep.Attempted)
	}

	// Medians over the traced reps, then the once-per-run measurements.
	values := map[string]float64{}
	for key := range perRep[0] {
		xs := make([]float64, len(perRep))
		for i, v := range perRep {
			xs[i] = v[key]
		}
		values[key] = median(xs)
	}
	wall := median(column(plain, wallOf))
	once := newTracer()
	if err := sc.probes(once); err != nil {
		return r.rep, err
	}
	if sc.extras != nil {
		r.rep.Attempted++
		if err := sc.extras(once); err != nil {
			r.rep.Failed++
			r.rep.Failures = append(r.rep.Failures, fmt.Sprintf("trace comparison: %v", err))
		}
	}
	for k, v := range once.values {
		values[k] = v
	}
	values["bench.trace_overhead_ratio"] = median(column(traced, wallOf)) / wall
	values["sim.ns_per_op"] = ratio(wall*1e9, float64(r.rep.OpsPerRep))
	values["sim.ns_per_event"] = ratio(wall*1e9, values["sim.events"])
	values["sim.shard_cpu_ratio"] = median(column(plain, func(s sample) float64 { return s.cpu })) / wall
	values["load.allocs_per_call"] = ratio(median(column(plain, func(s sample) float64 { return s.mallocs })), values["load.calls"])

	r.rep.Metrics = map[string]metricValue{}
	for _, name := range layerNames {
		r.rep.Metrics[name] = metricValue{Value: values[name]}
	}
	return r.rep, nil
}

// finish stamps units from the spec, the host, and the verdict.
func (rep *report) finish(spec *benchSpec) {
	specs := spec.EndToEnd
	if rep.Trace {
		specs = spec.PerLayer
	}
	for _, m := range specs {
		if v, ok := rep.Metrics[m.Name]; ok {
			v.Unit = m.Unit
			rep.Metrics[m.Name] = v
		}
	}
	rep.Host = readHost()
	rep.Correct = rep.Failed == 0
}

// print writes the human-readable report, then the contract line.
func (rep *report) print(spec *benchSpec) {
	fmt.Printf("workload %s  seed %d  trace %v  reps %d\n", rep.Workload, rep.Seed, rep.Trace, rep.Reps)
	fmt.Printf("host %s\n", rep.Host)
	specs := spec.EndToEnd
	if rep.Trace {
		specs = spec.PerLayer
	}
	for _, m := range specs {
		fmt.Printf("  %-32s %16.6g %s\n", m.Name, rep.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Printf("  %-32s %16d model-ops (constant across reps)\n", "ops_per_rep", rep.OpsPerRep)
	fmt.Printf("  %-32s %s\n", "sim_digest", rep.SimDigest)
	fmt.Printf("  %-32s %d failed / %d attempted\n", "fail_ratio", rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
}
