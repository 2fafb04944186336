package matrix

import (
	"sync"
	"testing"
)

// Every row is visited once, in blocks that start at a multiple of
// RowBlock, by worker indices below the capped worker count.
func TestParallelRowsCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 100} {
		for _, n := range []int{0, 1, 5, 64, 65, 200} {
			var mu sync.Mutex
			hits := make([]int, n)
			ParallelRows(n, workers, func(w, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				if w < 0 || w >= max(1, min(workers, (n+RowBlock-1)/RowBlock)) {
					t.Errorf("workers=%d n=%d: worker index %d", workers, n, w)
				}
				if workers > 1 && n > RowBlock && (lo%RowBlock != 0 || hi-lo > RowBlock) {
					t.Errorf("workers=%d n=%d: block [%d, %d) is not one aligned block", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: row %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}
