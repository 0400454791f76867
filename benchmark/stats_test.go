package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{50, 3}, {95, 5}, {100, 5}, {20, 1}, {21, 2}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{1, 0}); !math.IsNaN(got) {
		t.Errorf("geomean with a zero = %v, want NaN", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// returns, since the benchmark's acceptance rule is written in its terms.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles(1,2,4,8) = %v, %v; Python gives 1.25, 7", q1, q3)
	}
}

func TestRelSpread(t *testing.T) {
	if got := relSpread([]float64{100, 104}); math.Abs(got-4.0/102) > 1e-12 {
		t.Errorf("two-run spread = %v", got)
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("ten-run spread = %v, want 1", got)
	}
	if got := relSpread([]float64{7}); got != 0 {
		t.Errorf("one-run spread = %v", got)
	}
}
