package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// machine describes where a run was taken.
type machine struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	Kernel       string  `json:"kernel"`
	RunDirFS     string  `json:"run_dir_fs"` // filesystem under the WAL and graph files
	SleepOverP50 float64 `json:"sleep_overshoot_p50_us"`
	SleepOverP99 float64 `json:"sleep_overshoot_p99_us"`
}

// record is everything one invocation measured, written next to its
// spans so a number can be traced back to its inputs.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Machine     machine            `json:"machine"`
	Flags       []string           `json:"simrankd_flags"`
	BootSeconds []float64          `json:"boot_seconds"`
	StatsBefore json.RawMessage    `json:"stats_before"`
	StatsAfter  json.RawMessage    `json:"stats_after"`
	Ops         map[string]int     `json:"ops"`
	Check       checkResult        `json:"check"`
	BenchRSSMiB float64            `json:"bench_peak_rss_mib"`
	Tails       map[string]float64 `json:"tails"`
	Metrics     map[string]metric  `json:"metrics"`
}

func describeMachine(runDir string) machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		RunDirFS:   fsType(runDir),
	}
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			m.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	// An open loop would pace with time.Sleep; its overshoot is why the
	// workloads are closed loops.
	const want = 100 * time.Microsecond
	over := make([]float64, 0, 200)
	for range 200 {
		t := time.Now()
		time.Sleep(want)
		over = append(over, us(time.Since(t)-want))
	}
	m.SleepOverP50 = percentile(over, 50)
	m.SleepOverP99 = percentile(over, 99)
	return m
}

// fsType names the filesystem mounted at the longest mount point that
// contains dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	best, kind := "", ""
	for _, line := range strings.Split(readFile("/proc/mounts"), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, f[2]+" on "+f[0]
		}
	}
	return kind
}

func readFile(path string) string {
	b, _ := os.ReadFile(path) // absent on non-Linux: the field stays empty
	return string(b)
}
