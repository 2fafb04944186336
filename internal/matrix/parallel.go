package matrix

import (
	"sync"
	"sync/atomic"
)

// RowBlock is the number of rows ParallelRows hands out at a time. Each
// block starts at a multiple of RowBlock, so a caller may keep state per
// block that only the worker holding the block touches.
const RowBlock = 64

// ParallelRows runs fn over [0, n) in blocks of 64 rows and waits for
// completion. The calling goroutine, as worker 0, and workers−1 others,
// as workers 1 to workers−1, each claim the next unclaimed block from a
// shared counter until none is left, so rows whose cost differs by
// orders of magnitude (the old, in-linked nodes of a preferential-
// attachment graph against the rest) still spread evenly. fn receives
// the claiming worker's index w, so per-worker scratch needs no lock.
// workers is first capped at the number of blocks; workers ≤ 1 (or
// n ≤ 64) then calls fn(0, 0, n) directly on the calling goroutine — no
// goroutines, no allocation — so hot paths that default to one worker
// stay allocation-free.
func ParallelRows(n, workers int, fn func(w, lo, hi int)) {
	workers = min(workers, (n+RowBlock-1)/RowBlock)
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var next atomic.Int64
	claim := func(w int) {
		for {
			lo := int(next.Add(RowBlock)) - RowBlock
			if lo >= n {
				return
			}
			fn(w, lo, min(lo+RowBlock, n))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim(w)
		}()
	}
	claim(0)
	wg.Wait()
}
