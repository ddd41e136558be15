package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// header identifies a run so that a later one can be compared with it
// (ROADMAP 1a, scoped to bench/out/).
type header struct {
	Commit      string  `json:"commit"`
	Dirty       bool    `json:"dirty"`
	Go          string  `json:"go"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	NProc       int     `json:"nproc"`
	CPU         string  `json:"cpu"`
	PinnedCPU   int     `json:"pinned_cpu"`
	DriverProcs int     `json:"driver_gomaxprocs"`
	NodeProcs   int     `json:"node_gomaxprocs"`
	NodeFlags   string  `json:"node_flags"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	Quick       bool    `json:"quick"`
	StartedAt   string  `json:"started_at"`
}

// record is bench/out/<run>/record.json: the header, every metric with
// its unit, and the per-phase counts with their per-window samples.
type record struct {
	Header  header                 `json:"header"`
	Correct bool                   `json:"correct"`
	Error   string                 `json:"error,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`
	SetupS  []float64              `json:"setup_s_samples"`
	Phases  []*phaseResult         `json:"phases"`
	Notes   []string               `json:"notes,omitempty"`
}

// gitState reports the commit and whether the tree is dirty; the
// driver's checkouts are not repositories, hence "unknown".
func gitState(repo string) (commit string, dirty bool) {
	out, err := exec.Command("git", "-C", repo, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.Command("git", "-C", repo, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(st) > 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (r *run) header(repo string, started time.Time) header {
	commit, dirty := gitState(repo)
	return header{
		Commit: commit, Dirty: dirty,
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), CPU: cpuModel(), PinnedCPU: r.cfg.cpu,
		DriverProcs: runtime.GOMAXPROCS(0), NodeProcs: 1, NodeFlags: r.spec().flags(),
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds,
		Trace: r.cfg.trace, Quick: r.cfg.quick,
		StartedAt: started.UTC().Format(time.RFC3339Nano),
	}
}

func (r *run) writeRecord(rec *record) error {
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.dir, "record.json"), b, 0o644)
}
