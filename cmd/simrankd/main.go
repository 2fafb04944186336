// Command simrankd serves a live SimRank engine over HTTP/JSON: query
// endpoints (GET /similarity, /topk, /topkfor, /stats) answered
// lock-free off the engine's published MVCC read views — read latency
// independent of write activity — and a write path (POST /updates) that
// coalesces bursts of link updates into one batched commit + view
// publish per drain cycle. See internal/server for the endpoint and
// coalescing semantics.
//
// The listener binds before the engine boots: GET /healthz is pure
// liveness, GET /readyz answers 503 until -restore (or the initial
// batch computation) completes and the first view is published, then
// 200 with the serving epoch — point load balancers at /readyz.
//
// Usage:
//
//	simrankd -graph edges.txt [-addr :8080] [-snapshot state.simr]
//	         [-c 0.6] [-k 15] [-workers 0] [-topk-cache 4096]
//	         [-backend dense|packed|approx] [-approx-walks 128] [-approx-seed 1]
//	simrankd -restore state.simr [-addr :8080] [-snapshot state.simr]
//	simrankd -n 100                       # empty graph with 100 nodes
//
// -backend selects the similarity store: dense (exact, 8n² bytes),
// packed (exact, ≈4n² bytes — the same engine at half the memory) or
// approx (Monte-Carlo stored-walk tier, O(n·(walks·k+d)) bytes — the
// only backend that loads graphs whose n² is out of budget; updates are
// absorbed by repairing just the affected walk suffixes, and /stats
// reports the repair work as walks_repaired/walk_resample_fraction).
// The backend is baked into snapshots, so it conflicts with -restore.
//
// -workers sizes the exact backends' batch kernel, which computes the
// boot-time scores and every recompute; incremental updates run on one
// goroutine whatever it says.
//
// With -snapshot set, POST /snapshot persists on demand and a graceful
// shutdown (SIGINT/SIGTERM) drains the write pipeline and writes a final
// snapshot, so `simrankd -restore state.simr` resumes exactly where the
// previous process stopped.
//
// With -wal-dir set, every committed mutation is appended to a
// segmented write-ahead log BEFORE the view exposing it publishes, so
// even a kill -9 loses nothing acknowledged: boot becomes
// restore-newest-snapshot (-restore) + replay-the-log-tail, and a
// successful snapshot truncates the segments it covers. -wal-sync picks
// the fsync policy (always, interval, none; see README "Durability &
// crash recovery"), -wal-segment-bytes the rotation size. A SIGTERM
// during restore or replay aborts the boot cleanly — nonzero exit, no
// snapshot of half-replayed state.
//
// With -follow <leader-url> set, the process is a READ REPLICA: it
// boots its base state as usual (same seed -graph/-n as the leader, or
// a leader snapshot via -restore, plus its own local -wal-dir tail),
// then tails the leader's GET /wal stream, applying each record through
// the same code path crash recovery replays and publishing one MVCC
// view per applied epoch — bit-identical to the leader at the same
// epoch. Writes answer 409 with the leader's address; /readyz answers
// 503 until the follower is connected and within -follow-lag epochs of
// the leader; /stats grows replica_lag_epochs, replica_lag_ms,
// records_streamed and reconnects. The leader paces heartbeat frames
// every -wal-heartbeat; the follower reconnects (with backoff, from its
// last applied epoch) when no frame arrives within -follow-stall. A
// stream that cannot extend the local state — the leader regressed, or
// truncated the needed records after a snapshot — exits the process
// with an error: re-seed from a leader snapshot. See README
// "Replication".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	simrank "repro"
	"repro/internal/graph"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "simrankd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		graphPth = flag.String("graph", "", "edge-list file to boot from (\"from to\" lines)")
		nodes    = flag.Int("n", 0, "boot with an empty graph of this many nodes (if no -graph/-restore)")
		restore  = flag.String("restore", "", "snapshot file to boot from (skips the batch computation)")
		snapshot = flag.String("snapshot", "", "snapshot path for POST /snapshot and the final shutdown snapshot")
		c        = flag.Float64("c", 0.6, "damping factor in (0,1)")
		k        = flag.Int("k", 15, "iteration count")
		backend  = flag.String("backend", "dense", "similarity store: dense, packed or approx")
		walks    = flag.Int("approx-walks", 128, "approx backend: walks per pair (stderr shrinks as 1/sqrt)")
		seed     = flag.Int64("approx-seed", 1, "approx backend: derived-seed root for the stored walks")
		workers  = flag.Int("workers", 0, "batch-kernel goroutines for boot and recompute (0 = GOMAXPROCS); updates always run on one goroutine")
		topkRows = flag.Int("topk-cache", 4096, "rows retained by the dirty-row top-k query cache (0 disables)")
		queue    = flag.Int("queue", 1024, "write-pipeline queue size (requests)")
		maxBatch = flag.Int("max-batch", 1<<16, "max updates coalesced per drain cycle")
		window   = flag.Duration("batch-window", 0, "hold each drain cycle open this long to deepen write coalescing (0 = commit immediately)")
		maxNodes = flag.Int("max-nodes", 1<<14, "largest graph POST /nodes may grow to (the dense matrix costs 8n² bytes)")
		timeout  = flag.Duration("shutdown-timeout", 15*time.Second, "graceful shutdown deadline")

		walDir      = flag.String("wal-dir", "", "write-ahead-log directory (enables durable logging + crash recovery)")
		walSync     = flag.String("wal-sync", "always", "wal fsync policy: always (every append), interval (background timer + ?wait=1 group commit) or none")
		walSyncInt  = flag.Duration("wal-sync-interval", 50*time.Millisecond, "background fsync period under -wal-sync=interval")
		walSegBytes = flag.Int64("wal-segment-bytes", 64<<20, "wal segment rotation size in bytes")

		follow       = flag.String("follow", "", "run as a read replica of this leader base URL (e.g. http://leader:8080)")
		followLag    = flag.Uint64("follow-lag", 0, "replica readiness bound: /readyz answers 200 while the follower is within this many epochs of the leader")
		followStall  = flag.Duration("follow-stall", 10*time.Second, "replica reconnects when no stream frame arrives for this long (keep above the leader's -wal-heartbeat)")
		walHeartbeat = flag.Duration("wal-heartbeat", time.Second, "heartbeat interval on the GET /wal replication stream this process serves")
	)
	flag.Parse()

	syncPolicy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		return err
	}
	if *walDir == "" {
		// A tuning flag without the enabling flag is a misconfiguration
		// trap (the operator believes they have a durability guarantee
		// they don't); refuse instead of silently ignoring.
		var orphaned []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "wal-sync", "wal-sync-interval", "wal-segment-bytes":
				orphaned = append(orphaned, "-"+f.Name)
			}
		})
		if len(orphaned) > 0 {
			return fmt.Errorf("%s have no effect without -wal-dir", strings.Join(orphaned, ", "))
		}
	}
	if *follow == "" {
		var orphaned []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "follow-lag", "follow-stall":
				orphaned = append(orphaned, "-"+f.Name)
			}
		})
		if len(orphaned) > 0 {
			return fmt.Errorf("%s have no effect without -follow", strings.Join(orphaned, ", "))
		}
	}

	if *restore != "" {
		// C and K are baked into the restored similarity state;
		// silently running with different values than asked would be a
		// trap, so combining them with -restore is an error. -workers and
		// -topk-cache are not persisted, so bootEngine applies them.
		var clash []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "c", "k", "n", "backend", "approx-walks", "approx-seed":
				clash = append(clash, "-"+f.Name)
			}
		})
		if len(clash) > 0 {
			return fmt.Errorf("%s conflict with -restore: the snapshot fixes the graph, the C/K options and the store backend (drop the flag or boot from -graph)", strings.Join(clash, ", "))
		}
	}
	if _, err := simrank.ParseBackend(*backend); err != nil {
		return err
	}

	// Open (and recover) the log before anything else: a corrupt mid-log
	// record must fail the boot loudly, before the listener raises any
	// expectation of service. A torn tail — the signature of a crash
	// mid-append — is truncated away silently-but-reported here.
	var w *wal.WAL
	if *walDir != "" {
		w, err = wal.Open(*walDir, wal.Options{
			SegmentBytes: *walSegBytes,
			Sync:         syncPolicy,
			SyncInterval: *walSyncInt,
		})
		if err != nil {
			return err
		}
		defer func() {
			// A WAL that fails to close cleanly may hold final records
			// unsynced; surface that at shutdown instead of dropping it.
			if cerr := w.Close(); cerr != nil {
				fmt.Printf("simrankd: wal close: %v\n", cerr)
			}
		}()
		if torn := w.Stats().TornBytes; torn > 0 {
			fmt.Printf("simrankd: wal recovery truncated a torn tail of %d bytes (previous process died mid-append)\n", torn)
		}
	}

	// Signals are armed BEFORE the boot begins, not after it finishes: a
	// SIGTERM that lands during a long -restore or WAL replay must abort
	// the boot cleanly (nonzero exit, no snapshot of half-replayed
	// state), not be dropped on the floor until the kernel escalates.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Bind the listener before booting the engine: a -restore replay or
	// a large initial batch computation can take a while, and during it
	// the process must answer /healthz (alive) while /readyz holds
	// traffic off. Every query endpoint answers 503 until the engine
	// attaches with its first view published.
	srv := server.NewPending(server.Config{
		SnapshotPath:      *snapshot,
		QueueSize:         *queue,
		MaxBatch:          *maxBatch,
		BatchWindow:       *window,
		MaxNodes:          *maxNodes,
		WAL:               w,
		HeartbeatInterval: *walHeartbeat,
		Leader:            *follow,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("simrankd: listening on %s (booting; watch /readyz)\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	// The unpersisted options (workers, cache) ride into every boot
	// path — constructor for -graph/-n, ConfigureRestored for -restore —
	// so that booting never advances the epoch: the serving epoch is
	// exactly the restored/replayed history, which is what lets a read
	// replica resume the leader's stream from its own local epoch.
	eng, err := bootEngine(*restore, *graphPth, *nodes, simrank.Options{
		C: *c, K: *k, Workers: *workers,
		Backend: simrank.Backend(*backend), ApproxWalks: *walks, ApproxSeed: *seed,
		TopKCacheRows: *topkRows,
	})
	if err != nil {
		httpSrv.Close()
		return err
	}
	if err := ctx.Err(); err != nil {
		// Signaled while the base state was loading: nothing replayed,
		// nothing attached, nothing to persist.
		httpSrv.Close()
		return fmt.Errorf("boot aborted: %w", err)
	}
	if w != nil {
		// Replay the log tail above the base state's epoch — everything
		// acknowledged after the restored snapshot was serialized (the
		// whole log when booting from -graph or -n). Only after the replay
		// lands does the engine start logging its own commits.
		applied, err := eng.ReplayWAL(ctx, w)
		if err != nil {
			httpSrv.Close()
			return fmt.Errorf("wal replay: %w", err)
		}
		if applied > 0 {
			fmt.Printf("simrankd: wal replayed %d records (now at epoch %d)\n", applied, eng.Epoch())
		}
		eng.SetWAL(w)
	}
	if *follow != "" {
		// Follower: tail the leader from the epoch the local boot reached
		// (snapshot + local WAL replay), so a restart resumes mid-stream
		// instead of refetching history. Run retries connection failures
		// forever; the errors it RETURNS are terminal — the stream can no
		// longer extend this state — and must kill the process loudly
		// rather than let a silently-forked replica keep serving.
		rep := replica.New(eng, replica.Options{
			Leader:       *follow,
			LagBound:     *followLag,
			StallTimeout: *followStall,
		})
		srv.SetReplica(rep)
		go func() {
			if err := rep.Run(ctx); err != nil {
				errc <- fmt.Errorf("replication: %w", err)
			}
		}()
	}
	srv.Attach(eng)
	// The exact boot's batch kernel leaves its working memory dead in
	// the heap (row lists, whole rows and accumulators: a few MiB on
	// simbench's graphs, no n×n buffer), and the next GC would only fire
	// once the heap doubles past it — after the first publish has
	// allocated the store's second buffer on top, which sets the
	// process's peak RSS. Collect and return it now; the server already
	// answers /readyz, so boot time does not include this.
	debug.FreeOSMemory()
	fmt.Printf("simrankd: engine ready (%d nodes, %d edges, %s store, %d store bytes, epoch %d)\n",
		eng.N(), eng.M(), eng.Backend(), eng.StoreMemBytes(), eng.Epoch())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Println("simrankd: signal received — draining")
	}

	// Stop accepting HTTP first, then drain the pipeline and persist, so
	// every write we answered 202 for makes it into the final snapshot.
	// The drain-and-snapshot must happen even if Shutdown times out on a
	// stuck connection — accepted writes are never dropped. (The WAL
	// closes last, via the deferred Close above, after the final
	// snapshot has truncated what it covers.)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	if err := srv.Close(); err != nil {
		return errors.Join(shutdownErr, fmt.Errorf("drain/snapshot: %w", err))
	}
	if *snapshot != "" {
		fmt.Printf("simrankd: final snapshot written to %s\n", *snapshot)
	}
	if shutdownErr != nil {
		return fmt.Errorf("http shutdown: %w", shutdownErr)
	}
	return nil
}

// bootEngine builds the concurrent engine from, in order of preference, a
// snapshot, an edge-list file, or an empty n-node graph.
func bootEngine(restore, graphPath string, nodes int, opts simrank.Options) (*simrank.ConcurrentEngine, error) {
	switch {
	case restore != "" && graphPath != "":
		return nil, errors.New("-restore and -graph are mutually exclusive")
	case restore != "":
		eng, err := simrank.ReadSnapshotFile(restore)
		if err != nil {
			return nil, fmt.Errorf("restore %s: %w", restore, err)
		}
		// Snapshots persist neither option; ConfigureRestored applies
		// them without minting an epoch, before the first view publishes.
		eng.ConfigureRestored(opts.Workers, opts.TopKCacheRows)
		return simrank.WrapEngine(eng), nil
	case graphPath != "":
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, err
		}
		g, err := graph.ParseEdgeList(f, 0)
		f.Close()
		if err != nil {
			return nil, err
		}
		return simrank.NewConcurrentEngine(g.N(), g.Edges(), opts)
	case nodes > 0:
		return simrank.NewConcurrentEngine(nodes, nil, opts)
	default:
		return nil, errors.New("one of -graph, -restore or -n is required")
	}
}
