package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile: with fewer the percentile is one noisy rep, not a statistic.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than beyond samples lie above the returned one, so the
// caller cannot report a tail the sample does not support.
func percentile(xs []float64, p float64, beyond int) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of an empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if above := len(s) - rank; above < beyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, len(s), above, beyond)
	}
	return s[rank-1], nil
}

// median is the p50 of a sample of any size.
func median(xs []float64) float64 {
	v, err := percentile(xs, 0.5, 0)
	if err != nil {
		return 0
	}
	return v
}

// spanSet aggregates spans per layer boundary: call count and total time.
// Spans live in memory and are read out when the run ends.
type spanSet struct {
	total map[string]time.Duration
	count map[string]int64
}

func newSpanSet() *spanSet {
	return &spanSet{total: map[string]time.Duration{}, count: map[string]int64{}}
}

func (s *spanSet) add(name string, d time.Duration, n int64) {
	s.total[name] += d
	s.count[name] += n
}

// since records one span that started at t0.
func (s *spanSet) since(name string, t0 time.Time) { s.add(name, time.Since(t0), 1) }

func (s *spanSet) seconds(name string) float64 { return s.total[name].Seconds() }

// spanParent names the span each boundary nests in. Handler spans are
// recorded net of the sends they issue, so all three are direct children of
// the scheduler's run span.
var spanParent = map[string]string{
	"topology.handler": "sim.run",
	"election.handler": "sim.run",
	"sim.send":         "sim.run",
}

// self is a span's total minus the part its child spans cover. cores is how
// many goroutines ran children concurrently inside the span (shard mode: the
// children sum over both cores, so the parent is scaled to core-seconds).
func (s *spanSet) self(name string, cores int) time.Duration {
	d := s.total[name] * time.Duration(cores)
	for child, parent := range spanParent {
		if parent == name {
			d -= s.total[child]
		}
	}
	return d
}

// sample is what one rep cost the host.
type sample struct {
	wall, cpu float64 // seconds
	mallocs   float64 // heap objects allocated
	allocMB   float64 // bytes allocated, MB
}

// measure runs f once between two resource snapshots. ReadMemStats stops
// the world, so it sits outside the timed interval.
func measure(f func() error) (sample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return sample{
		wall:    wall,
		cpu:     c1 - c0,
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
	}, err
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), 0 when
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
