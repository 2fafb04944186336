package simrank

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// TestParallelUpdateBitEquivalence is the determinism contract across
// worker counts: the SAME stream of unit updates, batches and node
// growth applied at Workers ∈ {2, 4, 8} must leave every backend's store
// bit-identical to a serial (Workers=1) oracle after every single step —
// not merely close. Unit updates run on the calling goroutine at every
// worker count; the batches that cross ApplyBatch's recompute threshold
// run the row-parallel batch kernel, which never splits the
// accumulations into one cell across workers, so equality here is exact
// float equality. Run with -race in CI to also prove the kernel's
// fan-out is data-race free.
func TestParallelUpdateBitEquivalence(t *testing.T) {
	type cfg struct {
		backend        Backend
		disablePruning bool
	}
	cases := []cfg{
		{BackendDense, false},
		{BackendDense, true},
		{BackendPacked, false},
		{BackendPacked, true},
		// The approx tier has no pruning switch on its repair path; one
		// configuration covers it.
		{BackendApprox, false},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/pruning=%v", tc.backend, !tc.disablePruning)
		t.Run(name, func(t *testing.T) {
			opts := Options{K: 12, Backend: tc.backend, DisablePruning: tc.disablePruning, ApproxWalks: 32}
			rng := rand.New(rand.NewSource(int64(len(name))))
			model := &streamModel{n: 12 + rng.Intn(5), edges: make(map[Edge]bool)}
			for i := 0; i < model.n; i++ {
				for j := 0; j < model.n; j++ {
					if i != j && rng.Float64() < 0.15 {
						model.edges[Edge{From: i, To: j}] = true
					}
				}
			}
			edges := model.edgeList()

			newEng := func(workers int) *Engine {
				o := opts
				o.Workers = workers
				eng, err := NewEngine(model.n, edges, o)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			oracle := newEng(1)
			defer oracle.Close()
			workerCounts := []int{2, 4, 8}
			parallel := make([]*Engine, len(workerCounts))
			for i, w := range workerCounts {
				parallel[i] = newEng(w)
				defer parallel[i].Close()
			}

			compare := func(step int, trace []string) {
				t.Helper()
				for i, par := range parallel {
					if tc.backend == BackendApprox {
						for a := 0; a < model.n; a++ {
							for b := 0; b < model.n; b++ {
								if got, want := par.Similarity(a, b), oracle.Similarity(a, b); got != want {
									t.Fatalf("workers=%d step %d: s(%d,%d) = %v, serial %v (trace %v)",
										workerCounts[i], step, a, b, got, want, trace)
								}
							}
						}
						continue
					}
					if d := matrix.MaxAbsDiff(par.Similarities(), oracle.Similarities()); d != 0 {
						t.Fatalf("workers=%d step %d: store drifted %g from serial oracle (trace %v)",
							workerCounts[i], step, d, trace)
					}
				}
			}

			var trace []string
			apply := func(ups []Update) {
				t.Helper()
				if err := oracle.ApplyBatch(ups); err != nil {
					t.Fatalf("oracle: %v (trace %v)", err, trace)
				}
				for i, par := range parallel {
					if err := par.ApplyBatch(ups); err != nil {
						t.Fatalf("workers=%d: %v (trace %v)", workerCounts[i], err, trace)
					}
				}
			}
			compare(-1, trace)
			for step := 0; step < 16; step++ {
				switch rng.Intn(4) {
				case 0, 1: // single update through the incremental path
					up := model.randomUpdate(rng)
					trace = append(trace, up.String())
					apply([]Update{up})
				case 2: // batch straddling the recompute crossover
					k := 1 + rng.Intn(5)
					ups := make([]Update, k)
					for i := range ups {
						ups[i] = model.randomUpdate(rng)
						trace = append(trace, ups[i].String())
					}
					apply(ups)
				case 3: // grow across the resize boundary, keep updating
					count := 1 + rng.Intn(2)
					trace = append(trace, fmt.Sprintf("addnodes(%d)", count))
					if _, err := oracle.AddNodes(count); err != nil {
						t.Fatal(err)
					}
					for _, par := range parallel {
						if _, err := par.AddNodes(count); err != nil {
							t.Fatal(err)
						}
					}
					model.n += count
				}
				compare(step, trace)
			}
		})
	}
}

// TestSetWorkersDuringUpdates is the -race test for resizing while a
// writer streams: ConcurrentEngine.SetWorkers serializes with updates
// under the writer lock and publishes the new Options, so hammering both
// concurrently must produce no races and leave the store bit-identical
// to a serial replay of the same update sequence. The engine starts from
// the batch kernel's scores at Workers = 2, the replay at Workers = 1.
func TestSetWorkersDuringUpdates(t *testing.T) {
	const (
		n     = 24
		steps = 120
	)
	rng := rand.New(rand.NewSource(42))
	model := &streamModel{n: n, edges: make(map[Edge]bool)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.1 {
				model.edges[Edge{From: i, To: j}] = true
			}
		}
	}
	edges := model.edgeList()
	ups := make([]Update, steps)
	for i := range ups {
		ups[i] = model.randomUpdate(rng)
	}

	ce, err := NewConcurrentEngine(n, edges, Options{K: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // resize continuously while the writer streams updates
		defer wg.Done()
		for w := 0; ; w++ {
			select {
			case <-stop:
				return
			default:
				ce.SetWorkers(1 + w%4)
			}
		}
	}()
	for _, up := range ups {
		if _, err := ce.Apply(up); err != nil {
			close(stop)
			t.Fatalf("apply %v: %v", up, err)
		}
	}
	close(stop)
	wg.Wait()

	serial, err := NewEngine(n, edges, Options{K: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	for _, up := range ups {
		if _, err := serial.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	if d := matrix.MaxAbsDiff(ce.Similarities(), serial.Similarities()); d != 0 {
		t.Fatalf("updates interleaved with SetWorkers drifted %g from serial replay", d)
	}
}

// TestUpdatesRunOnCallerGoroutine pins that an incremental update starts
// no goroutine on any backend, whatever Workers says: Workers sizes only
// the batch kernel, whose goroutines are joined before NewEngine
// returns. The engines are never closed, so a goroutine an update leaves
// behind stays counted.
func TestUpdatesRunOnCallerGoroutine(t *testing.T) {
	g := gen.PrefAttach(64, 4, 7)
	edges := absentEdges(g, 25, 31)
	cases := []struct {
		backend        Backend
		disablePruning bool
	}{
		{BackendDense, false},
		{BackendDense, true},
		{BackendPacked, false},
		{BackendPacked, true},
		{BackendApprox, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/pruning=%v", tc.backend, !tc.disablePruning), func(t *testing.T) {
			before := runtime.NumGoroutine()
			eng, err := NewEngine(g.N(), g.Edges(), Options{
				K: 10, Workers: 4, Backend: tc.backend, DisablePruning: tc.disablePruning, ApproxWalks: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range edges {
				if _, err := eng.Insert(e.From, e.To); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Delete(e.From, e.To); err != nil {
					t.Fatal(err)
				}
			}
			// A joined goroutine may still be on its way out when Wait
			// returns, so allow the count a moment to settle.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after %d updates at Workers=4, %d before the engine was built",
						runtime.NumGoroutine(), 2*len(edges), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
