package matrix

import (
	"sync"
	"sync/atomic"
)

// rowBlock is the number of rows ParallelRows hands out at a time.
const rowBlock = 64

// ParallelRows runs fn over [0, n) in blocks of 64 rows and waits for
// completion. The calling goroutine and workers−1 others each claim the
// next unclaimed block from a shared counter until none is left, so rows
// whose cost differs by orders of magnitude (the old, in-linked nodes of
// a preferential-attachment graph against the rest) still spread evenly.
// workers ≤ 1 (or n ≤ 64) calls fn(0, n) directly on the calling
// goroutine — no goroutines, no allocation — so hot paths that default
// to one worker stay allocation-free.
func ParallelRows(n, workers int, fn func(lo, hi int)) {
	workers = min(workers, (n+rowBlock-1)/rowBlock)
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for {
			lo := int(next.Add(rowBlock)) - rowBlock
			if lo >= n {
				return
			}
			fn(lo, min(lo+rowBlock, n))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}
