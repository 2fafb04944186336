package simrank

import (
	"sync"
	"testing"

	"repro/internal/matrix"
)

func TestConcurrentEngineBasics(t *testing.T) {
	c, err := NewConcurrentEngine(4, []Edge{{From: 0, To: 1}, {From: 0, To: 2}}, Options{C: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 || c.M() != 2 || !c.HasEdge(0, 1) {
		t.Fatal("accessors wrong")
	}
	if c.Similarity(1, 2) <= 0 {
		t.Fatal("expected positive similarity")
	}
	if len(c.TopK(1)) != 1 || len(c.TopKFor(1, 1)) != 1 {
		t.Fatal("top-k wrong")
	}
}

func TestConcurrentEngineValidation(t *testing.T) {
	if _, err := NewConcurrentEngine(3, nil, Options{C: 7}); err == nil {
		t.Fatal("want error")
	}
}

func TestWrapEngine(t *testing.T) {
	eng := mustEngine(t, 3, []Edge{{From: 0, To: 1}}, Options{})
	c := WrapEngine(eng)
	if c.M() != 1 {
		t.Fatal("wrapped engine lost state")
	}
}

// TestConcurrentReadersAndWriter exercises parallel queries against a
// stream of updates; run with -race to validate the locking.
func TestConcurrentReadersAndWriter(t *testing.T) {
	c, err := NewConcurrentEngine(20, []Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 2}, {From: 2, To: 4},
	}, Options{C: 0.6, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Similarity(r%5, (r+1)%5)
				_ = c.TopK(3)
				_ = c.TopKFor(2, 3)
				_ = c.M()
			}
		}(r)
	}
	for i := 5; i < 15; i++ {
		if _, err := c.Insert(i, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete(i, 2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentApplyBatch(t *testing.T) {
	c, err := NewConcurrentEngine(6, []Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
		{From: 4, To: 5}, {From: 5, To: 0}, {From: 0, To: 2}, {From: 1, To: 3},
	}, Options{C: 0.6, K: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyBatch([]Update{{Edge: Edge{From: 2, To: 5}, Insert: true}}); err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, 6, []Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
		{From: 4, To: 5}, {From: 5, To: 0}, {From: 0, To: 2}, {From: 1, To: 3},
		{From: 2, To: 5},
	}, Options{C: 0.6, K: 30})
	got := c.Similarities()
	if d := matrix.MaxAbsDiff(got, eng.Similarities()); d > 1e-6 {
		t.Fatalf("concurrent batch drifted %g", d)
	}
}
