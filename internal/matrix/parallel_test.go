package matrix

import (
	"sync"
	"testing"
)

func TestParallelRowsCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 100} {
		for _, n := range []int{0, 1, 5, 64, 65, 200} {
			var mu sync.Mutex
			hits := make([]int, n)
			ParallelRows(n, workers, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
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
