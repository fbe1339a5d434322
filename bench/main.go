// Command bench is the repository benchmark: seven simulator workloads,
// eight gated end-to-end metrics and per-module layer spans, as declared in
// BENCHMARK.json. See README.md beside this file.
//
//	bash bench/run.sh -workload ctl-c0 -seed 1             end-to-end metrics
//	bash bench/run.sh -workload ctl-c0 -seed 1 -trace 1    per-layer metrics
//	bash bench/run.sh -workload all -o out                 every workload, one process each
//	bash bench/run.sh -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run, or all (see -list)")
		seed     = flag.Int64("seed", 1, "derives every graph, simulator, load and fault seed")
		seconds  = flag.Int("seconds", 0, "measure for at least this long (default: run_seconds of BENCHMARK.json)")
		traceOn  = flag.Int("trace", 0, "1 turns the layer spans on and reports the per-layer metrics")
		list     = flag.Bool("list", false, "print the workloads and metrics BENCHMARK.json declares")
		outDir   = flag.String("o", "", "directory to write <workload>.json (or <workload>.trace.json) reports into")
		compare  = flag.String("compare", "", "directory of earlier reports to compare against")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceOn != 0, *list, *outDir, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced, list bool, outDir, compare string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if list {
		spec.list()
		return nil
	}
	if workload == "all" {
		return runAll(os.Args[1:])
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	var rep *report
	if traced {
		rep, err = runTraced(workload, seed, 1)
	} else {
		rep, err = runTimed(workload, seed, 1, minReps, time.Duration(seconds)*time.Second)
	}
	if rep != nil {
		rep.finish(spec)
		rep.print(spec)
	}
	if err != nil {
		return err
	}
	file := rep.Workload + ".json"
	if traced {
		file = rep.Workload + ".trace.json"
	}
	if compare != "" {
		if err := rep.compare(spec, filepath.Join(compare, file)); err != nil {
			return err
		}
	}
	if outDir != "" {
		if err := rep.write(filepath.Join(outDir, file)); err != nil {
			return err
		}
	}
	// The contract line: last on stdout.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in a child process of its own, so that
// peak_rss_mb is per workload.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadNames {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
	}
	return nil
}

func (rep *report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare prints rep against an earlier report of the same workload: each
// end-to-end metric's change and whether it stays inside its bound. Counts
// made by the simulator must repeat exactly; timings from another kind of
// host are not comparable, and it says so.
func (rep *report) compare(spec *benchSpec, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old report
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("compared with %s (commit %s)\n", path, old.Host.Commit)
	if why := rep.Host.differs(old.Host); why != "" {
		fmt.Printf("WARNING: taken on a different host (%s): timings are not comparable\n", why)
	}
	if old.Seed == rep.Seed {
		verdict := "identical"
		if old.SimDigest != rep.SimDigest || old.OpsPerRep != rep.OpsPerRep {
			verdict = "DIFFERENT: the simulated statistics changed"
		}
		fmt.Printf("  %-32s %s\n", "sim_digest, ops_per_rep", verdict)
	}
	specs := spec.EndToEnd
	if rep.Trace {
		specs = spec.PerLayer
	}
	for _, m := range specs {
		was, now := old.Metrics[m.Name].Value, rep.Metrics[m.Name].Value
		if was == 0 {
			continue
		}
		change := (now - was) / was
		verdict := ""
		worse := change
		if m.Better == "higher" {
			worse = -change
		}
		switch {
		case m.Bound == 0:
		case worse > m.Bound:
			verdict = fmt.Sprintf("WORSE than the %g%% bound", 100*m.Bound)
		default:
			verdict = "within bound"
		}
		fmt.Printf("  %-32s %14.6g -> %14.6g %s  %+7.2f%%  %s\n", m.Name, was, now, m.Unit, 100*change, verdict)
	}
	return nil
}
