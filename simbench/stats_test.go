package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{15, 20, 35, 40, 50}, 5, 15},
		{[]float64{15, 20, 35, 40, 50}, 30, 20},
		{[]float64{15, 20, 35, 40, 50}, 40, 20},
		{[]float64{50, 40, 35, 20, 15}, 50, 35},
		{[]float64{15, 20, 35, 40, 50}, 100, 50},
		{[]float64{3, 1, 2}, 99, 3},
		{[]float64{7}, 50, 7},
		{nil, 50, 0},
	} {
		if got := percentile(append([]float64(nil), tc.xs...), tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if p50, p99 := percentile(hundred, 50), percentile(hundred, 99); p50 != 50 || p99 != 99 {
		t.Errorf("1..100: p50 %v p99 %v, want 50 and 99", p50, p99)
	}
}
