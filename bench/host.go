package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostInfo describes where a run was taken, so that two reports can be told
// apart as comparable or not.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(), Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				h.CPU = strings.TrimSpace(val)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q cores=%d gomaxprocs=%d %s/%s %s commit=%s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GOOS, h.GOARCH, h.GoVersion, h.Commit)
}

// differs reports why timings from the two hosts cannot be compared, or ""
// when they can.
func (h hostInfo) differs(o hostInfo) string {
	switch {
	case h.CPU != o.CPU:
		return fmt.Sprintf("CPU model %q vs %q", o.CPU, h.CPU)
	case h.NumCPU != o.NumCPU || h.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("%d cores (GOMAXPROCS %d) vs %d cores (GOMAXPROCS %d)", o.NumCPU, o.GOMAXPROCS, h.NumCPU, h.GOMAXPROCS)
	}
	return ""
}
