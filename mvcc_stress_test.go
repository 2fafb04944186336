package simrank

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
)

// mvccStep is one epoch-advancing mutation of the deterministic writer
// schedule: exactly one of the fields is set. Replaying the schedule
// serially on a plain Engine visits the same epochs with the same
// state, which is what lets the stress test demand bit-equality.
type mvccStep struct {
	apply     *Update
	batch     []Update
	addNodes  int
	recompute bool
}

// epochs returns how many epoch increments the step commits.
func (s mvccStep) epochs() int {
	switch {
	case s.apply != nil, s.addNodes > 0, s.recompute:
		return 1
	default:
		return len(s.batch) // incremental path: one bump per folded update
	}
}

func (s mvccStep) run(t *testing.T, apply func(Update) error, batch func([]Update) error, addNodes func(int) error, recompute func()) {
	t.Helper()
	switch {
	case s.apply != nil:
		if err := apply(*s.apply); err != nil {
			t.Errorf("apply %v: %v", *s.apply, err)
		}
	case s.batch != nil:
		if err := batch(s.batch); err != nil {
			t.Errorf("batch %v: %v", s.batch, err)
		}
	case s.addNodes > 0:
		if err := addNodes(s.addNodes); err != nil {
			t.Errorf("addnodes %d: %v", s.addNodes, err)
		}
	case s.recompute:
		recompute()
	}
}

// buildMVCCSchedule produces a deterministic stream of valid mutations
// over a growing graph, tracking edge presence so every update applies
// cleanly.
func buildMVCCSchedule(seed int64, n0, steps int) (edges []Edge, sched []mvccStep) {
	rng := rand.New(rand.NewSource(seed))
	n := n0
	present := map[Edge]bool{}
	for len(edges) < 3*n0 {
		e := Edge{From: rng.Intn(n), To: rng.Intn(n)}
		if !present[e] {
			present[e] = true
			edges = append(edges, e)
		}
	}
	flip := func() Update {
		e := Edge{From: rng.Intn(n), To: rng.Intn(n)}
		up := Update{Edge: e, Insert: !present[e]}
		present[e] = up.Insert
		return up
	}
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(10); {
		case r < 6:
			up := flip()
			sched = append(sched, mvccStep{apply: &up})
		case r < 8:
			b := make([]Update, 0, 3)
			seen := map[Edge]bool{}
			for len(b) < 3 {
				up := flip()
				if seen[up.Edge] {
					continue // keep the overlay simple: one touch per edge per batch
				}
				seen[up.Edge] = true
				b = append(b, up)
			}
			sched = append(sched, mvccStep{batch: b})
		case r < 9:
			sched = append(sched, mvccStep{addNodes: 1})
			n++
		default:
			sched = append(sched, mvccStep{recompute: true})
		}
	}
	return edges, sched
}

// mvccObs is one reader observation, tagged with the epoch of the view
// it was read from.
type mvccObs struct {
	epoch  uint64
	n, m   int
	a, b   int
	sim    float64
	topka  int
	k      int
	topk   []Pair
	global []Pair
}

// TestMVCCStressSnapshotIsolation hammers the lock-free read path from
// N goroutines while a writer streams Apply/ApplyBatch/AddNodes/
// Recompute, then serially replays the same schedule and demands that
// every observation was internally consistent: its (n, m) pair matches
// the replay at that epoch, epochs were monotone per reader, and every
// score and top-k is bit-equal to the serial engine at that epoch. Run
// with -race in CI; exercises both exact backends with the query cache
// on (cached answers must be bit-equal too) plus the approx backend,
// whose deterministic stored-walk queries make the same bit-replay
// valid even though every commit there is an incremental walk repair.
// The whole matrix also runs at Workers ∈ {1, 2, 4, 8} while the
// replay oracle stays serial, so the batch kernel's row-parallel boot
// and recomputes are checked bit-for-bit against the sequential floats.
func TestMVCCStressSnapshotIsolation(t *testing.T) {
	for _, backend := range []Backend{BackendDense, BackendPacked, BackendApprox} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", backend, workers), func(t *testing.T) {
				runMVCCStress(t, backend, workers)
			})
		}
	}
}

func runMVCCStress(t *testing.T, backend Backend, workers int) {
	const (
		n0      = 18
		steps   = 60
		readers = 4
	)
	opts := Options{C: 0.6, K: 6, Backend: backend, ApproxWalks: 32,
		TopKCacheRows: 12, RecomputeThreshold: 100, Workers: workers}
	edges, sched := buildMVCCSchedule(11, n0, steps)

	ce, err := NewConcurrentEngine(n0, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()

	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
		obs  = make([][]mvccObs, readers)
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := ce.acquire()
				o := mvccObs{epoch: v.epoch, n: v.n, m: v.m}
				if o.epoch < last {
					t.Errorf("reader %d: epoch went backwards %d -> %d", r, last, o.epoch)
					release(v)
					return
				}
				last = o.epoch
				o.a, o.b = rng.Intn(o.n), rng.Intn(o.n)
				o.sim = v.similarity(o.a, o.b)
				o.topka = rng.Intn(o.n)
				o.k = 1 + rng.Intn(5)
				o.topk = v.topKFor(o.topka, o.k)
				if i%7 == 0 {
					o.global = v.topK(4)
				}
				release(v)
				if i%16 == 0 { // keep memory bounded; sample the rest
					obs[r] = append(obs[r], o)
				}
			}
		}(r)
	}

	// The writer streams the schedule against the readers.
	for _, st := range sched {
		st.run(t,
			func(up Update) error { _, err := ce.Apply(up); return err },
			ce.ApplyBatch,
			func(k int) error { _, err := ce.AddNodes(k); return err },
			func() { _ = ce.Recompute() },
		)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Serial replay: a plain engine stepping the same schedule.
	// Group observations by epoch, advance the replay engine epoch
	// by epoch, and compare bits.
	byEpoch := map[uint64][]mvccObs{}
	var maxEpoch uint64
	for _, ro := range obs {
		for _, o := range ro {
			byEpoch[o.epoch] = append(byEpoch[o.epoch], o)
			if o.epoch > maxEpoch {
				maxEpoch = o.epoch
			}
		}
	}
	// The replay oracle always runs serial, whatever worker count the
	// live engine used: bit-equality here is the end-to-end proof that
	// the row-parallel write-back reproduces the serial floats exactly.
	refOpts := opts
	refOpts.Workers = 1
	ref, err := NewEngine(n0, edges, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(epoch uint64) {
		for _, o := range byEpoch[epoch] {
			if o.n != ref.N() || o.m != ref.M() {
				t.Fatalf("epoch %d: observed (n,m)=(%d,%d), replay has (%d,%d)",
					epoch, o.n, o.m, ref.N(), ref.M())
			}
			if got := ref.Similarity(o.a, o.b); got != o.sim {
				t.Fatalf("epoch %d: s(%d,%d) observed %v, replay %v",
					epoch, o.a, o.b, o.sim, got)
			}
			// Replay at the recorded k: both engines are deterministic,
			// so the whole answer must match bit for bit. (The approx
			// sampled list may be shorter than k — zero-score drop —
			// which is why k itself is recorded, not inferred.)
			want := ref.TopKFor(o.topka, o.k)
			if len(want) != len(o.topk) {
				t.Fatalf("epoch %d: topKFor(%d,%d) observed %d pairs, replay %d",
					epoch, o.topka, o.k, len(o.topk), len(want))
			}
			for i := range o.topk {
				if o.topk[i] != want[i] {
					t.Fatalf("epoch %d: topKFor(%d,%d)[%d] observed %+v, replay %+v",
						epoch, o.topka, o.k, i, o.topk[i], want[i])
				}
			}
			if o.global != nil {
				wantG := ref.TopK(4)
				if len(wantG) != len(o.global) {
					t.Fatalf("epoch %d: topK observed %d pairs, replay %d",
						epoch, len(o.global), len(wantG))
				}
				for i := range o.global {
					if o.global[i] != wantG[i] {
						t.Fatalf("epoch %d: topK[%d] observed %+v, replay %+v",
							epoch, i, o.global[i], wantG[i])
					}
				}
			}
		}
	}
	epoch := ref.Epoch() // 0
	check(epoch)
	for _, st := range sched {
		st.run(t,
			func(up Update) error { _, err := ref.Apply(up); return err },
			ref.ApplyBatch,
			func(k int) error { _, err := ref.AddNodes(k); return err },
			ref.Recompute,
		)
		for epoch++; epoch <= ref.Epoch(); epoch++ {
			// Batch steps commit several epochs at once; only the last
			// was ever published, so earlier ones have no observations.
			check(epoch)
		}
		epoch = ref.Epoch()
	}
	if maxEpoch > ref.Epoch() {
		t.Fatalf("observed epoch %d beyond replay end %d", maxEpoch, ref.Epoch())
	}
}

// A reader pinning an approx view must keep reading bit-identical
// answers while the writer repairs walk rows underneath — the
// copy-on-write contract on the stored-walk index, and the reason
// repair can run on the writer's private index with no reader-visible
// intermediate state. Run with -race: any in-place rewrite of a shared
// walk row is a reported write race, not just a value drift.
func TestMVCCApproxPinnedViewStableUnderRepair(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(3))
	var edges []Edge
	for i := 0; i < 3*n; i++ {
		edges = append(edges, Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}
	ce, err := NewConcurrentEngine(n, edges, Options{C: 0.6, K: 5, Backend: BackendApprox, ApproxWalks: 16})
	if err != nil {
		t.Fatal(err)
	}
	v0 := ce.acquire() // pin the boot view
	type probe struct{ a, b int }
	prng := rand.New(rand.NewSource(7))
	probes := make([]probe, 48)
	baseSim := make([]float64, len(probes))
	baseTopK := make([][]Pair, len(probes))
	for i := range probes {
		probes[i] = probe{prng.Intn(n), prng.Intn(n)}
		baseSim[i] = v0.similarity(probes[i].a, probes[i].b)
		baseTopK[i] = v0.topKFor(probes[i].a, 4)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, p := range probes {
					if got := v0.similarity(p.a, p.b); got != baseSim[i] {
						t.Errorf("pinned s(%d,%d) drifted under repair: %v vs %v", p.a, p.b, got, baseSim[i])
						return
					}
					tk := v0.topKFor(p.a, 4)
					if len(tk) != len(baseTopK[i]) {
						t.Errorf("pinned topKFor(%d) length drifted: %d vs %d", p.a, len(tk), len(baseTopK[i]))
						return
					}
					for j := range tk {
						if tk[j] != baseTopK[i][j] {
							t.Errorf("pinned topKFor(%d)[%d] drifted: %+v vs %+v", p.a, j, tk[j], baseTopK[i][j])
							return
						}
					}
				}
			}
		}()
	}
	// The writer toggles edges underneath the pinned readers; every
	// commit is an incremental walk repair touching rows the view holds.
	for i := 0; i < 150; i++ {
		from, to := i%n, (i*7+1)%n
		if ce.HasEdge(from, to) {
			_, err = ce.Delete(from, to)
		} else {
			_, err = ce.Insert(from, to)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	release(v0)
	if ce.Epoch() != 150 {
		t.Fatalf("writer committed %d epochs, want 150", ce.Epoch())
	}
}

// A long reader pinning an old view must never block the writer, and
// the pinned view must stay bit-stable while hundreds of commits land.
func TestMVCCLongReaderDoesNotBlockWriter(t *testing.T) {
	for _, backend := range []Backend{BackendDense, BackendPacked} {
		t.Run(string(backend), func(t *testing.T) {
			const n = 16
			rng := rand.New(rand.NewSource(9))
			var edges []Edge
			for i := 0; i < 3*n; i++ {
				edges = append(edges, Edge{From: rng.Intn(n), To: rng.Intn(n)})
			}
			ce, err := NewConcurrentEngine(n, edges, Options{C: 0.6, K: 5, Backend: backend, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Pin the boot view like a slow Similarities/snapshot reader.
			v := ce.acquire()
			before := make([]float64, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					before[i*n+j] = v.s.At(i, j)
				}
			}
			e0 := edges[0]
			for i := 0; i < 200; i++ {
				if _, err := ce.Delete(e0.From, e0.To); err != nil {
					t.Fatal(err)
				}
				if _, err := ce.Insert(e0.From, e0.To); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if v.s.At(i, j) != before[i*n+j] {
						t.Fatalf("pinned view drifted at (%d,%d) after %s writes", i, j, backend)
					}
				}
			}
			release(v)
			if got := ce.Epoch(); got != 400 {
				t.Fatalf("writer stalled: epoch %d, want 400", got)
			}
		})
	}
}

// Regression: consecutive views can share one store buffer (a publish
// with no store writes — SetWorkers here — seals the same front again).
// A straggling reader pinning the OLDER of the two sharers must survive
// any number of later flips: the facade may only forget a displaced
// view once it has drained, not after one write cycle. Before the fix,
// the second Apply recycled the pinned buffer and -race fired. Both
// exact stores double-buffer, so both run it.
func TestMVCCPinnedViewSurvivesSharedBufferRecycling(t *testing.T) {
	for _, backend := range []Backend{BackendDense, BackendPacked} {
		t.Run(string(backend), func(t *testing.T) {
			const n = 12
			rng := rand.New(rand.NewSource(41))
			var edges []Edge
			for i := 0; i < 3*n; i++ {
				edges = append(edges, Edge{From: rng.Intn(n), To: rng.Intn(n)})
			}
			ce, err := NewConcurrentEngine(n, edges, Options{C: 0.6, K: 5, Workers: 1, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			v0 := ce.acquire() // pin the boot view (buffer A)
			before := v0.similarities()
			ce.SetWorkers(1) // publish v1: same buffer A, no store write
			e0 := edges[0]
			done := make(chan *matrix.Dense, 1)
			go func() {
				// The long reader: keep re-reading the pinned view while
				// flips land — under -race any recycle of A is a reported
				// write race.
				var last *matrix.Dense
				for i := 0; i < 50; i++ {
					last = v0.similarities()
				}
				done <- last
			}()
			for i := 0; i < 50; i++ {
				if _, err := ce.Delete(e0.From, e0.To); err != nil {
					t.Fatal(err)
				}
				if _, err := ce.Insert(e0.From, e0.To); err != nil {
					t.Fatal(err)
				}
			}
			after := <-done
			if d := matrix.MaxAbsDiff(before, after); d != 0 {
				t.Fatalf("pinned view drifted by %g while its buffer was recycled", d)
			}
			// One straggler costs ONE abandoned buffer, not one per write:
			// once the pinned buffer is orphaned, the writer must settle
			// back into steady double-buffer reuse (back held, re-synced
			// by logged cells) even though the straggler is still pinned.
			if d, ok := ce.eng.s.(interface{ DoubleBuffered() bool }); !ok || !d.DoubleBuffered() {
				t.Fatal("writer did not resume double-buffer reuse under a persistent straggler")
			}
			release(v0)
		})
	}
}

// Reads on ConcurrentEngine must not acquire the writer mutex: a reader
// completes even while the writer mutex is held. (The structural
// guarantee behind "read latency is independent of write activity".)
func TestMVCCReadsBypassWriterMutex(t *testing.T) {
	ce, err := NewConcurrentEngine(4, []Edge{{From: 0, To: 1}, {From: 2, To: 1}}, Options{C: 0.6, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ce.writerMu.Lock()
	defer ce.writerMu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ce.Similarity(0, 2)
		_ = ce.TopKFor(0, 2)
		_ = ce.TopK(2)
		_, _ = ce.Size()
		_ = ce.HasEdge(0, 1)
		_ = ce.Similarities()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second): // generous; the reads are microseconds
		t.Fatal("reads blocked while the writer mutex was held")
	}
}
