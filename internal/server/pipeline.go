// Package server exposes a simrank.ConcurrentEngine over HTTP/JSON:
// query endpoints served lock-free off the engine's published MVCC
// views (readers never wait on writers, or vice versa), and a write
// path that never touches the writer mutex per request — incoming
// updates flow through an asynchronous coalescing pipeline that folds
// everything queued into one ApplyBatch per drain cycle, published as
// one new view. Burst traffic therefore pays one writer-mutex
// acquisition and one view publish per cycle, and a large enough burst
// crosses ApplyBatch's recompute threshold exactly as Exp-1 of the
// paper prescribes (batch recomputation beats folding unit updates once
// the batch is a sizable fraction of |E|).
package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	simrank "repro"
)

// errPipelineClosed rejects writes submitted after shutdown began.
var errPipelineClosed = errors.New("server: write pipeline closed")

// writeReq is one client write: a group of updates that must commit
// together, plus an optional completion-notify handle for synchronous
// requests (done receives the commit error exactly once).
type writeReq struct {
	ups  []simrank.Update
	done chan error // nil for fire-and-forget
}

// pipelineStats are the atomically-maintained counters surfaced by
// GET /stats; batches counts ApplyBatch commits, so updatesApplied ≫
// batches is the observable signature of coalescing at work.
type pipelineStats struct {
	enqueued      atomic.Int64
	applied       atomic.Int64
	rejected      atomic.Int64
	batches       atomic.Int64
	failedBatches atomic.Int64
	maxBatch      atomic.Int64
	depth         atomic.Int64
	// walFailures counts commits whose durability step failed — the
	// mutation is applied and visible, but its WAL record (or the group
	// -commit fsync a ?wait=1 waiter demanded) is not on disk. Nonzero
	// here means acknowledged-in-memory state could be lost in a crash.
	walFailures atomic.Int64
}

// latWindowSize bounds the sliding window of recent commit latencies the
// /stats update percentiles are computed over: big enough that p99 rests
// on several observations, small enough that the percentiles track the
// current load, not the process's whole history.
const latWindowSize = 512

// latencyWindow is a fixed-size ring of the most recent apply-call
// latencies (µs). Writes come only from the drain goroutine, reads from
// any /stats request, so a small mutex suffices — the critical sections
// are a ring store and an O(window) copy.
type latencyWindow struct {
	mu      sync.Mutex
	buf     [latWindowSize]int64
	n       int // filled entries
	next    int
	scratch []int64 // reused percentile sort buffer, allocated on first use
}

// record stores one commit latency, evicting the oldest once full. A
// sub-microsecond commit rounds up to 1µs so a zero percentile always
// means "no commits yet", never "very fast commits".
func (lw *latencyWindow) record(us int64) {
	if us < 1 {
		us = 1
	}
	lw.mu.Lock()
	lw.buf[lw.next] = us
	lw.next = (lw.next + 1) % latWindowSize
	if lw.n < latWindowSize {
		lw.n++
	}
	lw.mu.Unlock()
}

// percentiles returns the p50 and p99 of the window (0, 0 while empty),
// by nearest-rank over a sorted copy.
func (lw *latencyWindow) percentiles() (p50, p99 int64) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.n == 0 {
		return 0, 0
	}
	if cap(lw.scratch) < lw.n {
		lw.scratch = make([]int64, lw.n)
	}
	s := lw.scratch[:lw.n]
	copy(s, lw.buf[:lw.n])
	slices.Sort(s)
	return s[(lw.n-1)*50/100], s[(lw.n-1)*99/100]
}

// pipeline is the coalescing write path. submit enqueues a request onto
// a buffered channel and returns immediately; a single drain goroutine
// takes the first queued request, greedily gathers everything else that
// has arrived (up to maxBatch updates), and commits the lot through one
// apply call. Because the drain goroutine is the only writer, one MVCC
// view is published per cycle no matter how many requests coalesced
// into it.
type pipeline struct {
	apply func([]simrank.Update) error
	// sync, when non-nil, is the group-commit hook: called once per
	// committed cycle that carries at least one synchronous waiter,
	// before any waiter is notified, so a ?wait=1 acknowledgement
	// implies the cycle's WAL record is on stable storage. The server
	// wires it to WAL.Sync under the interval fsync policy only —
	// always-fsync makes it redundant, none makes it unwanted.
	sync     func() error
	reqs     chan writeReq
	maxBatch int
	// window > 0 keeps a drain cycle open that long after its first
	// request arrives, deepening coalescing at the cost of added write
	// latency; 0 commits as soon as the engine is free.
	window time.Duration

	mu       sync.Mutex // guards closed against concurrent submit/close
	closed   bool
	inflight sync.WaitGroup // in-flight submits that passed the closed check
	done     chan struct{}  // drain goroutine exited

	stats pipelineStats
	// lat holds the recent commit latencies behind the /stats
	// update_p50_us/update_p99_us gauges: how long one apply call (the
	// engine-side work of a coalesced cycle) took, measured by the drain
	// goroutine around every commit attempt.
	lat latencyWindow
}

func newPipeline(apply func([]simrank.Update) error, sync func() error, queueSize, maxBatch int, window time.Duration) *pipeline {
	if queueSize <= 0 {
		queueSize = 1024
	}
	if maxBatch <= 0 {
		maxBatch = 1 << 16
	}
	p := &pipeline{
		apply:    apply,
		sync:     sync,
		reqs:     make(chan writeReq, queueSize),
		maxBatch: maxBatch,
		window:   window,
		done:     make(chan struct{}),
	}
	go p.drain()
	return p
}

// submit enqueues one write request. When wait is true the returned
// channel receives the commit result after the request's batch has been
// applied and its view published, so a subsequent read is guaranteed to
// observe the update.
func (p *pipeline) submit(ups []simrank.Update, wait bool) (<-chan error, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errPipelineClosed
	}
	p.inflight.Add(1)
	p.mu.Unlock()
	defer p.inflight.Done()

	req := writeReq{ups: ups}
	if wait {
		req.done = make(chan error, 1)
	}
	p.stats.enqueued.Add(int64(len(ups)))
	p.stats.depth.Add(int64(len(ups)))
	p.reqs <- req
	return req.done, nil
}

// close stops accepting writes, waits for the drain goroutine to commit
// everything already queued, and returns. Safe to call once.
func (p *pipeline) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.inflight.Wait() // every accepted submit has finished enqueueing
	close(p.reqs)     // drain goroutine exits after the buffer empties
	<-p.done
}

func (p *pipeline) drain() {
	defer close(p.done)
	for {
		req, ok := <-p.reqs
		if !ok {
			return
		}
		cycle := []writeReq{req}
		total := len(req.ups)
		if p.window > 0 {
			// Hold the cycle open for the batching window so a burst in
			// flight coalesces even when the engine could keep up.
			timer := time.NewTimer(p.window)
		windowed:
			for total < p.maxBatch {
				select {
				case r, ok := <-p.reqs:
					if !ok {
						break windowed
					}
					cycle = append(cycle, r)
					total += len(r.ups)
				case <-timer.C:
					break windowed
				}
			}
			timer.Stop()
		}
	coalesce:
		for total < p.maxBatch {
			select {
			case r, ok := <-p.reqs:
				if !ok {
					break coalesce
				}
				cycle = append(cycle, r)
				total += len(r.ups)
			default:
				break coalesce
			}
		}
		p.commit(cycle, total)
	}
}

// commit folds one drain cycle through a single apply call. ApplyBatch
// is atomic (a failed batch mutates nothing), so when the coalesced
// batch is rejected the cycle falls back to applying each request on its
// own — one client's inapplicable update must not poison the writes that
// merely shared a drain cycle with it — and every waiter learns its own
// request's fate.
//
// A durability failure (simrank.ErrDurability) is the one error that
// must NOT take the fallback path: the batch is committed and visible,
// only its log record is missing, and re-applying an already-applied
// batch would reject every update in it ("edge already present") —
// misreporting a durability incident as a client error. Instead the
// cycle is acknowledged with the durability error itself.
//
// The cycle leaves the queue depth once its batch apply returns, before
// any waiter is notified, so a waiter that reads the depth never finds
// its own cycle still counted.
func (p *pipeline) commit(cycle []writeReq, total int) {
	var ups []simrank.Update
	if len(cycle) == 1 {
		ups = cycle[0].ups
	} else {
		ups = make([]simrank.Update, 0, total)
		for _, r := range cycle {
			ups = append(ups, r.ups...)
		}
	}
	err := p.timedApply(ups)
	p.stats.depth.Add(int64(-total))
	if err == nil || errors.Is(err, simrank.ErrDurability) {
		p.acknowledge(cycle, len(ups), err)
		return
	}
	if len(cycle) == 1 {
		p.stats.failedBatches.Add(1)
		p.stats.rejected.Add(int64(len(ups)))
		notify(cycle[0].done, err)
		return
	}
	// Only terminal (post-fallback) failures count in the stats, so one
	// bad update rejected once reads as one failure, not two.
	for _, r := range cycle {
		e := p.timedApply(r.ups)
		if e == nil || errors.Is(e, simrank.ErrDurability) {
			p.acknowledge([]writeReq{r}, len(r.ups), e)
		} else {
			p.stats.failedBatches.Add(1)
			p.stats.rejected.Add(int64(len(r.ups)))
			notify(r.done, e)
		}
	}
}

// acknowledge finishes one COMMITTED cycle: counts it applied, runs the
// group-commit sync if a synchronous waiter demands durability, and
// notifies every waiter — with nil on the fully-durable path, or with a
// durability error when the record or its fsync failed (the updates are
// visible either way; the error is about the disk, not the mutation).
func (p *pipeline) acknowledge(cycle []writeReq, n int, err error) {
	p.noteBatch(n)
	if err == nil && p.sync != nil {
		for _, r := range cycle {
			if r.done != nil {
				if serr := p.sync(); serr != nil {
					err = fmt.Errorf("%w: %v", simrank.ErrDurability, serr)
				}
				break
			}
		}
	}
	if err != nil {
		p.stats.walFailures.Add(1)
	}
	for _, r := range cycle {
		notify(r.done, err)
	}
}

// timedApply runs one apply call with its wall time recorded into the
// latency window — rejected batches included, since a client waiting on
// ?wait=1 experiences that latency too.
func (p *pipeline) timedApply(ups []simrank.Update) error {
	start := time.Now()
	err := p.apply(ups)
	p.lat.record(time.Since(start).Microseconds())
	return err
}

func (p *pipeline) noteBatch(n int) {
	p.stats.batches.Add(1)
	p.stats.applied.Add(int64(n))
	for {
		cur := p.stats.maxBatch.Load()
		if int64(n) <= cur || p.stats.maxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

func notify(done chan error, err error) {
	if done != nil {
		done <- err // buffered, never blocks
	}
}
