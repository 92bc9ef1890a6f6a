package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35} // sorted: 15 20 35 40 50
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {60, 35}, {80, 40}, {99, 50}, {100, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := medianDuration([]time.Duration{3 * time.Second, time.Second}); got != 2 {
		t.Errorf("medianDuration = %v, want 2", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4) as Python 3 computes it (method "exclusive"); the expected values
// were printed by CPython.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7, 1, 3}, [3]float64{1, 3, 7}},
		{[]float64{2.5, 10, 4, 8, 1, 9.5}, [3]float64{2.125, 6, 9.625}},
	} {
		got, ok := quartiles(append([]float64(nil), c.xs...))
		if !ok {
			t.Fatalf("quartiles(%v) refused", c.xs)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample accepted")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
