package main

import (
	"fmt"
	"strconv"
	"time"
)

// workload is one seeded input set: a preferential-attachment graph of n
// nodes booted into simrankd with the given store, driven by two
// closed-loop connections with the given op mix.
type workload struct {
	name    string
	n       int
	backend string
	// cacheRows is the -topk-cache flag.
	cacheRows int
	// workers is the -workers flag: goroutines for the batch kernel and
	// for every update, 0 for auto (GOMAXPROCS, but serial updates below
	// 2048 nodes). The client shares the machine's two cores with the
	// server, so a parallel update path times the scheduler: on 2 vCPUs
	// auto made ingest 35% slower and spread its rates 0.15 (IQR over
	// median of five seeds) against 0.08 with 1; logged went from 0.09
	// to 0.05. read_mostly keeps auto, which updates serially at its n:
	// with 1 its boot ran the batch kernel serially, and in four runs of
	// five the heap then kept growing to 145 MiB, not 92, in the warm-up.
	workers int
	// wal boots with -wal-dir on a fresh directory and -wal-sync none:
	// every commit is appended to the log, but none is fsynced. Under
	// always, each ack waited on the shared host's disk, whose fsync
	// latency moved the workload's rates and p50s by a third between sets
	// of runs of the same build; the disk, not the program, set them.
	wal bool
	// writeFrac and topkFrac are the shares of acked writes and of
	// /topkfor reads; the rest are /similarity reads.
	writeFrac, topkFrac float64
	// boots is how many timed boots the setup_s median is taken over.
	boots int
	// tracedOps is how many ops of each connection's stream the traced
	// run replays in-process.
	tracedOps int
}

// Every workload runs the paper's C and K on a graph of out-degree 4,
// reads top-10 lists, and samples 128 walks with seed 1 on approx.
const (
	dampC    = 0.6
	iterK    = 15
	outDeg   = 4
	topK     = 10
	approxW  = 128
	approxSd = 1
	numConns = 2
	warmup   = 2 * time.Second // untimed load before the measured phase
)

var workloads = []workload{
	{name: "ingest", n: 2048, backend: "dense", cacheRows: 0, workers: 1,
		writeFrac: 0.8, topkFrac: 0.1, boots: 3, tracedOps: 300},
	{name: "read_mostly", n: 2000, backend: "packed", cacheRows: 512, workers: 0,
		writeFrac: 0.05, topkFrac: 0.475, boots: 5, tracedOps: 1500},
	{name: "logged", n: 5000, backend: "approx", cacheRows: 4096, workers: 1, wal: true,
		writeFrac: 0.5, topkFrac: 0.02, boots: 9, tracedOps: 400},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverFlags are the simrankd flags after -addr: the graph file, the
// store, and the workload's cache, worker and log settings. C, K and
// pruning stay at simrankd's defaults, which are the paper's.
func (w workload) serverFlags(graphPath, walDir string) []string {
	args := []string{"-graph", graphPath, "-backend", w.backend}
	if w.backend == "approx" {
		args = append(args, "-approx-walks", strconv.Itoa(approxW), "-approx-seed", strconv.Itoa(approxSd))
	}
	args = append(args, "-topk-cache", strconv.Itoa(w.cacheRows), "-workers", strconv.Itoa(w.workers))
	if w.wal {
		args = append(args, "-wal-dir", walDir, "-wal-sync", "none")
	}
	return args
}
