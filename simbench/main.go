// Command simbench is the repository's benchmark. For one workload and
// seed it generates a preferential-attachment graph and per-connection
// op streams, boots a real simrankd on the graph (several times, for
// the set-up time), drives it over loopback HTTP with two closed-loop
// connections, checks the served answers against an in-process oracle,
// and prints one JSON result line. With -trace 1 it also replays the
// same ops in-process through each layer's public entry points, timing
// every call as a span, and prints the per-layer metrics instead.
//
// Build and run it from the repository root with simbench/run.sh; see
// README.md for the workloads and every metric's definition.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/server"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest, read_mostly or logged")
		seed    = flag.Int64("seed", 1, "seed for the graph and the op streams")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 replays the ops in-process and reports per-layer metrics")
		bin     = flag.String("simrankd", "", "simrankd binary built from this checkout")
		out     = flag.String("out", ".bench_build/simbench", "directory for run files and records")
	)
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1, *bin, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// e2eRun is what the HTTP run measured.
type e2eRun struct {
	lat           [numClasses][]sample
	span          time.Duration // the measured phase, without its in-flight tail
	elapsed       time.Duration // until the last op completed
	rssMiB        float64       // the server's peak resident set after the warm-up
	before, after server.StatsResponse
}

func run(name string, seed int64, seconds int, trace bool, bin, out string) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	if bin == "" || seconds < 1 {
		return nil, errors.New("need -simrankd and -seconds ≥ 1")
	}
	dir := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%t", name, seed, trace))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Machine: describeMachine(dir), Ops: map[string]int{}}

	base := baseGraph(w)
	edgesPath := filepath.Join(dir, "edges.txt")
	if err := writeEdges(edgesPath, base); err != nil {
		return nil, err
	}
	// Boot from a warm page cache, as a restarted server would.
	for _, p := range []string{bin, edgesPath} {
		if _, err := os.ReadFile(p); err != nil {
			return nil, err
		}
	}
	boots := w.boots
	if trace {
		boots = 1 // the traced run reports no set-up time
	}
	var d *daemon
	for i := range boots {
		walDir := filepath.Join(dir, fmt.Sprintf("wal-boot%d", i))
		d, err = bootDaemon(bin, w.serverFlags(edgesPath, walDir), filepath.Join(dir, fmt.Sprintf("simrankd-boot%d.log", i)))
		if err != nil {
			return nil, err
		}
		rec.BootSeconds = append(rec.BootSeconds, d.setup.Seconds())
		if i < boots-1 {
			d.stop()
		}
	}
	rec.Flags = d.args
	e2e, res, err := drive(w, d, base, seed, seconds, &rec)
	d.stop()
	if err != nil {
		return nil, err
	}

	if trace {
		r := &replay{w: w, base: base, dir: dir, ops: interleave(w, seed, base, w.tracedOps), t: tracer{on: true}}
		if err := r.run(); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		res.Attempted += r.calls
		res.Failed += r.failed
		if r.lastErr != "" {
			fmt.Fprintf(os.Stderr, "simbench: replay: %s\n", r.lastErr)
		}
		res.Metrics = layerMetrics(w, e2e, r)
		if err := r.writeSpans(filepath.Join(dir, "spans.jsonl")); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEndMetrics(e2e, rec.BootSeconds)
	}
	rec.Metrics = res.Metrics
	rec.Tails = tails(e2e)
	// The WAL directories are the only large leftovers.
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*"))
	for _, m := range matches {
		os.RemoveAll(m)
	}
	rec.BenchRSSMiB, _ = procMiB("/proc/self/status", "VmHWM:") // informational only
	if err := writeRecord(filepath.Join(dir, "record.json"), &rec); err != nil {
		return nil, err
	}
	return res, nil
}

// drive runs the warm-up, the measured phase and the answer check
// against a ready server.
func drive(w workload, d *daemon, base *graph.DiGraph, seed int64, seconds int, rec *record) (*e2eRun, *result, error) {
	streams := newStreams(w, seed, base)
	conns := make([]*conn, len(streams))
	for i, s := range streams {
		conns[i] = newConn(d.url, s)
	}
	warm, _ := phase(conns, warmup)
	e := &e2eRun{}
	var err error
	if e.before, rec.StatsBefore, err = d.stats(); err != nil {
		return nil, nil, err
	}
	// The peak is read once the warm-up is over: in the measured phase a
	// reader still inside an old view now and then makes the dense writer
	// abandon a whole buffer (ConcurrentEngine.prepareWrite), which the Go
	// heap keeps resident, moving the peak by 40% in about one run in ten.
	if e.rssMiB, err = procMiB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid), "VmHWM:"); err != nil {
		return nil, nil, err
	}
	e.span = time.Duration(seconds) * time.Second
	parts, elapsed := phase(conns, e.span)
	meas := merge(parts)
	e.lat, e.elapsed = meas.lat, elapsed
	if e.after, rec.StatsAfter, err = d.stats(); err != nil {
		return nil, nil, err
	}
	check, err := checkAnswers(w, d.url, seed, streams)
	if err != nil {
		return nil, nil, err
	}
	rec.Check = check
	tally := merge(slices.Concat(parts, warm))
	rec.Ops["warmup"] = merge(warm).attempted
	rec.Ops["measured"] = meas.attempted
	rec.Ops["failed"] = tally.failed
	rec.Ops["check_probes"] = check.Probes
	if tally.lastErr != "" {
		fmt.Fprintf(os.Stderr, "simbench: %d failed ops, last: %s\n", tally.failed, tally.lastErr)
	}
	if check.First != "" {
		fmt.Fprintf(os.Stderr, "simbench: answer check: %s\n", check.First)
	}
	return e, &result{
		Correct:   check.Mismatches == 0,
		Attempted: tally.attempted + check.Probes,
		Failed:    tally.failed + check.Mismatches,
	}, nil
}

func writeEdges(path string, g *graph.DiGraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeRecord(path string, rec *record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
