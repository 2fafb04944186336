package matrix

import "sync"

// ParallelRows runs fn over [0, n) split into contiguous chunks, one per
// worker, and waits for completion. workers ≤ 1 (or n ≤ 1) calls fn
// directly on the calling goroutine — no goroutines, no allocation — so
// hot paths that default to one worker stay allocation-free.
func ParallelRows(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
