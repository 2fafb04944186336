package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	simrank "repro"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/server"
	"repro/internal/simstore"
	"repro/internal/wal"
)

// span is one timed call into a layer's public entry point. Parent is
// the index of the same op's span one layer up: -1 at the top, and for
// a layer the workload's stack does not run, which is replayed
// standalone.
type span struct {
	Layer  string `json:"layer"`
	Call   string `json:"call"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; with on false it records nothing, which
// is how the span-recording overhead is measured.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func (t *tracer) call(layer, call string, op, parent int, fn func() error) error {
	if !t.on {
		return fn()
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	t.spans = append(t.spans, span{Layer: layer, Call: call, Op: op, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return err
}

// Layer names, top down.
const (
	lServer     = "server"
	lConcurrent = "simrank.concurrent"
	lEngine     = "simrank.engine"
	lCore       = "core"
	lMonteCarlo = "montecarlo"
	lWAL        = "wal"
)

// replay drives one op sequence through each layer's public entry point,
// in-process and single-threaded. Every layer has its own instance built
// from the same base state and receives every op (see replayOps).
type replay struct {
	w       workload
	ops     []op
	base    *graph.DiGraph
	dir     string
	t       tracer
	calls   int
	failed  int
	lastErr string

	srv   *server.Server
	ce    *simrank.ConcurrentEngine
	eng   *simrank.Engine
	ws    *core.Workspace
	store core.SimStore
	mc    *simstore.Approx
	log   *wal.WAL
	// closers release the instances, in order, once the replay is over.
	closers []func() error

	// What the kernels report per write.
	aff, dirty, frontier, costNS, mcDirty []float64
	storeBytes                            int64
	matrixForm, parse                     time.Duration
	overheadUs                            float64 // span recording, per call
}

func (r *replay) check(err error) {
	r.calls++
	if err != nil {
		r.failed++
		r.lastErr = err.Error()
	}
}

// span runs fn as op's call into layer, recorded under parent, and
// returns the new span's index.
func (r *replay) span(layer, call string, op, parent int, fn func() error) int {
	r.check(r.t.call(layer, call, op, parent, fn))
	return len(r.t.spans) - 1
}

// openWAL opens a log in the run directory under the policy the
// workload boots simrankd with (see workload.wal).
func (r *replay) openWAL(name string) (*wal.WAL, error) {
	w, err := wal.Open(filepath.Join(r.dir, name), wal.Options{Sync: wal.SyncNone})
	if err == nil {
		r.closers = append(r.closers, w.Close)
	}
	return w, err
}

// run builds every layer, replays the ops and releases the layers.
func (r *replay) run() error {
	r.t.epoch = time.Now()
	err := r.build()
	if err == nil {
		r.replayOps()
		r.spanOverhead()
	}
	for i := len(r.closers) - 1; i >= 0; i-- {
		if cerr := r.closers[i](); err == nil {
			err = cerr
		}
	}
	return err
}

func (r *replay) build() error {
	// The layers hold several copies of the store at once (four n×n
	// matrices on dense) and building them leaves as much again in
	// scratch: collect it early rather than let the heap grow to twice
	// what is live. The replay itself runs at the default GOGC, as
	// simrankd does, so collection work does not inflate its spans.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	for _, step := range []func() error{r.parseGraph, r.stack, r.walkIndex, r.kernel} {
		if err := step(); err != nil {
			return err
		}
		debug.FreeOSMemory() // drop each step's scratch before the next allocates
	}
	var err error
	r.log, err = r.openWAL("wal-standalone")
	return err
}

// parseGraph times the edge-list parse simrankd boots with.
func (r *replay) parseGraph() error {
	path := filepath.Join(r.dir, "edges.txt")
	var ds []float64
	for range 5 {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		start := time.Now()
		_, err = graph.ParseEdgeList(f, 0)
		ds = append(ds, float64(time.Since(start)))
		f.Close()
		if err != nil {
			return err
		}
	}
	r.parse = time.Duration(median(ds))
	return nil
}

// kernel times the batch kernel at the workload's n and keeps its result
// as the standalone store core.Workspace.IncSR updates: the workload's
// own exact store, or a dense one on approx.
func (r *replay) kernel() error {
	n := r.w.n
	r.ws = core.NewWorkspace(r.base)
	r.ws.SetWorkers(r.w.workers)
	r.closers = append(r.closers, func() error { r.ws.StopPool(); return nil })
	s := matrix.NewDense(n, n)
	start := time.Now()
	batch.MatrixFormInto(s, matrix.NewDense(n, n), r.ws.TransitionCSR(), dampC, iterK, r.w.workers)
	r.matrixForm = time.Since(start)
	r.store = simstore.WrapDense(s)
	if r.w.backend == "packed" {
		p := simstore.NewPacked(n)
		p.SetFromDense(s)
		r.store = p
	}
	return nil
}

// walkIndex builds a standalone approx store over the base graph: the
// kernel under the engine on approx, a probe of that layer elsewhere.
func (r *replay) walkIndex() error {
	var err error
	r.mc, err = simstore.NewApprox(r.base.Clone(), dampC, iterK, approxW, approxSd)
	if err == nil {
		r.mc.SetWorkers(r.w.workers)
	}
	return err
}

// stack builds the engine once as simrankd does, then restores three
// instances from its snapshot: a bare Engine, a ConcurrentEngine and a
// server over another ConcurrentEngine, the last two with their own WAL
// on the logged workload.
func (r *replay) stack() error {
	eng, err := simrank.NewEngine(r.base.N(), r.base.Edges(), simrank.Options{
		C: dampC, K: iterK, Backend: simrank.Backend(r.w.backend),
		ApproxWalks: approxW, ApproxSeed: approxSd, TopKCacheRows: r.w.cacheRows, Workers: r.w.workers,
	})
	if err != nil {
		return err
	}
	r.storeBytes = eng.StoreMemBytes()
	var snap bytes.Buffer
	snap.Grow(int(r.storeBytes) + 1<<20)
	err = eng.WriteSnapshot(&snap)
	eng.Close()
	if err != nil {
		return err
	}
	restore := func() (*simrank.Engine, error) {
		e, err := simrank.ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err == nil {
			e.ConfigureRestored(r.w.workers, r.w.cacheRows)
		}
		return e, err
	}
	concurrent := func(walName string) (*simrank.ConcurrentEngine, *wal.WAL, error) {
		e, err := restore()
		if err != nil {
			return nil, nil, err
		}
		ce := simrank.WrapEngine(e)
		r.closers = append(r.closers, func() error { ce.Close(); return nil })
		var w *wal.WAL
		if r.w.wal {
			if w, err = r.openWAL(walName); err != nil {
				return nil, nil, err
			}
			ce.SetWAL(w)
		}
		return ce, w, nil
	}
	if r.eng, err = restore(); err != nil {
		return err
	}
	r.closers = append(r.closers, func() error { r.eng.Close(); return nil })
	if r.ce, _, err = concurrent("wal-concurrent"); err != nil {
		return err
	}
	srvEng, srvWAL, err := concurrent("wal-server")
	if err != nil {
		return err
	}
	// simrankd's defaults for every knob the benchmark leaves alone.
	r.srv = server.New(srvEng, server.Config{QueueSize: 1024, MaxBatch: 1 << 16, MaxNodes: 1 << 14, WAL: srvWAL, HeartbeatInterval: time.Second})
	r.closers = append(r.closers, r.srv.Close)
	return nil
}

// replayBlock is how many consecutive ops one layer takes before the
// next layer takes the same ops: long enough for a layer's own data to
// stay in the CPU caches, as it would in a server running that layer
// alone, and short enough that a layer's span and its child's span for
// one op are taken seconds apart at most.
const replayBlock = 25

// replayOps sends every op through every layer, block by block, top
// down. The kernel under the engine is Inc-SR on the exact stores and
// walk repair on approx; the WAL sits under the concurrent engine only
// where the server logs.
func (r *replay) replayOps() {
	approx := r.w.backend == "approx"
	m := r.base.M()
	var epoch uint64
	// Span index of each op in each stack layer, for the layer below.
	top, ce, eng := make([]int, len(r.ops)), make([]int, len(r.ops)), make([]int, len(r.ops))
	for lo := 0; lo < len(r.ops); lo += replayBlock {
		block := r.ops[lo:min(lo+replayBlock, len(r.ops))]
		for j, o := range block {
			i := lo + j
			req := inProcessRequest(o)
			resp := httptest.NewRecorder()
			top[i] = r.span(lServer, "ServeHTTP", i, -1, func() error {
				r.srv.ServeHTTP(resp, req)
				if resp.Code != http.StatusOK {
					return fmt.Errorf("%s %s: %d %s", req.Method, req.URL, resp.Code, strings.TrimSpace(resp.Body.String()))
				}
				return nil
			})
		}
		for j, o := range block {
			i := lo + j
			call, fn := concurrentCall(r.ce, o)
			ce[i] = r.span(lConcurrent, call, i, top[i], fn)
		}
		for j, o := range block {
			if i := lo + j; o.write() {
				eng[i] = r.span(lEngine, "ApplyBatch", i, ce[i], func() error { return r.eng.ApplyBatch([]simrank.Update{o.update()}) })
			}
		}
		for j, o := range block {
			if !o.write() {
				continue
			}
			i, up := lo+j, o.update()
			var st core.Stats
			k := r.span(lCore, "Workspace.IncSR", i, parentIf(!approx, eng[i]), func() (err error) {
				st, err = r.ws.IncSR(r.store, up, dampC, iterK)
				return err
			})
			r.ws.ApplyUpdate(up)
			r.aff = append(r.aff, float64(st.AffectedPairs))
			r.dirty = append(r.dirty, float64(len(st.DirtyRows)))
			r.frontier = append(r.frontier, st.FrontierArea)
			// The paper's cost model, K·(n·d̄ + |AFF|), with n·d̄ = m.
			r.costNS = append(r.costNS, float64(r.t.spans[k].dur())/float64(iterK*(m+st.AffectedPairs)))
			if up.Insert {
				m++
			} else {
				m--
			}
		}
		for j, o := range block {
			i := lo + j
			switch o.kind {
			case opTopKFor:
				r.span(lMonteCarlo, "Approx.TopKRow", i, parentIf(approx, ce[i]), func() error { r.mc.TopKRow(o.a, topK); return nil })
			case opSimilarity:
				r.span(lMonteCarlo, "Approx.PairStderr", i, parentIf(approx, ce[i]), func() error { r.mc.PairStderr(o.a, o.b); return nil })
			default:
				var dirty []int
				r.span(lMonteCarlo, "Approx.ApplyUpdate", i, parentIf(approx, eng[i]), func() error { dirty = r.mc.ApplyUpdate(o.update()); return nil })
				r.mcDirty = append(r.mcDirty, float64(len(dirty)))
			}
		}
		for j, o := range block {
			if i := lo + j; o.write() {
				epoch++
				rec := &wal.Record{Epoch: epoch, Kind: wal.KindBatch, Updates: []graph.Update{o.update()}}
				r.span(lWAL, "WAL.Append", i, parentIf(r.w.wal, ce[i]), func() error { return r.log.Append(rec) })
			}
		}
	}
}

// parentIf is parent when the layer runs under it in the workload's
// stack, and -1 when the layer is replayed standalone.
func parentIf(under bool, parent int) int {
	if under {
		return parent
	}
	return -1
}

// concurrentCall is op o's call into the concurrent engine.
func concurrentCall(ce *simrank.ConcurrentEngine, o op) (string, func() error) {
	switch o.kind {
	case opTopKFor:
		return "TopKFor", func() error { ce.TopKFor(o.a, topK); return nil }
	case opSimilarity:
		return "SimilarityStderr", func() error { ce.SimilarityStderr(o.a, o.b); return nil }
	}
	ups := []simrank.Update{o.update()}
	return "ApplyBatch", func() error { return ce.ApplyBatch(ups) }
}

// spanOverhead replays the /similarity ops against the concurrent
// engine's final state with spans on and with spans off, alternating
// over several rounds: reads leave the state as it was, so both sides do
// the same work, and the median difference per call is what recording a
// span costs. /similarity is the cheapest and steadiest call, so the
// difference is not lost in the calls' own spread.
func (r *replay) spanOverhead() {
	var reads []op
	for _, o := range r.ops {
		if o.kind == opSimilarity {
			reads = append(reads, o)
		}
	}
	if len(reads) == 0 {
		return
	}
	loop := func(on bool) time.Duration {
		t := tracer{on: on, epoch: r.t.epoch}
		start := time.Now()
		for i, o := range reads {
			call, fn := concurrentCall(r.ce, o)
			r.check(t.call(lConcurrent, call, i, -1, fn))
		}
		return time.Since(start)
	}
	var diffs []float64
	for round := range 9 {
		var on, off time.Duration
		if round%2 == 0 {
			on, off = loop(true), loop(false)
		} else {
			off, on = loop(false), loop(true)
		}
		diffs = append(diffs, us(on-off)/float64(len(reads)))
	}
	r.overheadUs = median(diffs)
}

func inProcessRequest(o op) *http.Request {
	method, target, body := o.request()
	return httptest.NewRequest(method, target, bytes.NewReader(body))
}

// durations returns each op's span duration (µs) in layer, keyed by op.
func (r *replay) durations(layer string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range r.t.spans {
		if s.Layer == layer {
			out[s.Op] = us(s.dur())
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines once the run is over.
func (r *replay) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
