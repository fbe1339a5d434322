package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the single source of workload names, metric
// names, units, directions and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the harness runs from the repository root, its tests from bench/).
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, spec.check()
}

// endToEndNames and layerNames are what the harness computes. check holds
// them to what BENCHMARK.json declares, in both directions, so neither side
// can drift.
var endToEndNames = []string{
	"setup_s", "wall_s_p50", "wall_s_p75", "ops_per_s", "cpu_s_p50",
	"allocs_per_run", "alloc_mb_per_run", "peak_rss_mb",
}

var layerNames = []string{
	"graph.gen_s", "graph.bfs_tree_s",
	"core.portmap_s", "core.hops", "core.syscalls", "core.packets", "core.header_bits",
	"core.finish_ticks", "core.fault_events", "core.cap_drops", "core.queue_ticks",
	"anr.codec_ns",
	"sim.new_s", "sim.inject_s", "sim.run_s", "sim.send_s", "sim.run_self_s", "sim.ns_per_op", "sim.ns_per_event",
	"sim.events", "sim.heap_pushes", "sim.lane_pushes", "sim.ring_pushes", "sim.batched_hops", "sim.fused_hops",
	"sim.ring_overflows", "sim.heap_peak", "sim.ring_peak", "sim.heap_bypass_ratio", "sim.fused_hops_per_event",
	"sim.shards", "sim.cut_edges", "sim.lookahead", "sim.shard_speedup", "sim.shard_cpu_ratio",
	"topology.handler_s", "topology.handler_calls", "topology.handler_ns_per_call", "topology.records_s",
	"topology.db_route_warm_ns", "topology.db_route_cold_ns",
	"paths.decompose_s",
	"election.handler_s", "election.handler_calls", "election.msgs", "election.msgs_per_n",
	"traffic.hw_s", "traffic.sf_s", "traffic.hw_ns_per_hop", "traffic.sf_ns_per_hop",
	"load.calls_per_s", "load.allocs_per_call", "load.pairtable_s", "load.sampler_ns", "load.pair_sample_ns",
	"load.hist_record_ns", "load.bare_spine_s", "load.overhead_ratio", "load.delivered_share", "load.blocked_share",
	"load.dropped_share", "load.setup_p50_ticks", "load.setup_p99_ticks", "load.setup_p999_ticks",
	"load.max_in_flight", "load.pool_chunks",
	"faults.s_per_epoch", "faults.violations", "faults.conv_rounds", "faults.elections", "faults.flips",
	"reliable.sent", "reliable.retrans", "calls.setup", "calls.failed",
	"trace.sink_overhead_ratio", "trace.events",
	"gosim.bcast_s",
	"bench.trace_overhead_ratio", "go.gc_cycles", "go.gc_pause_s",
}

func (s *benchSpec) check() error {
	declared := func(ms []metricSpec) []string {
		var names []string
		for _, m := range ms {
			names = append(names, m.Name)
		}
		return names
	}
	var workloads []string
	for _, w := range s.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, c := range []struct {
		what       string
		have, want []string
	}{
		{"workloads", workloads, workloadNames},
		{"end_to_end metrics", declared(s.EndToEnd), endToEndNames},
		{"per_layer metrics", declared(s.PerLayer), layerNames},
	} {
		if extra, missing := diff(c.have, c.want), diff(c.want, c.have); len(extra)+len(missing) > 0 {
			return fmt.Errorf("BENCHMARK.json %s disagree with the harness: declared but not computed %v, computed but not declared %v",
				c.what, extra, missing)
		}
	}
	return nil
}

// diff returns the members of a that b lacks, sorted.
func diff(a, b []string) []string {
	in := map[string]bool{}
	for _, x := range b {
		in[x] = true
	}
	var out []string
	for _, x := range a {
		if !in[x] {
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// list prints the workloads and metrics as declared.
func (s *benchSpec) list() {
	fmt.Println("workloads:")
	for _, w := range s.Workloads {
		fmt.Printf("  %-24s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (-trace 0):")
	for _, m := range s.EndToEnd {
		fmt.Printf("  %-24s %-12s %s is better, may worsen by %g%%\n", m.Name, m.Unit, m.Better, 100*m.Bound)
	}
	fmt.Println("per-layer metrics (-trace 1, not gated):")
	for _, m := range s.PerLayer {
		fmt.Printf("  %-32s %-8s %s\n", m.Name, m.Unit, strings.TrimSpace(m.Better+" is better"))
	}
}
