package main

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}, {0.125, 1.5},
	} {
		if got := percentile(xs, c.p); !approx(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); !approx(got, 2.5) {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("no samples must give NaN, never a plausible 0")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMidmean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{1, 3}, 2},
		{[]float64{9, 1, 5}, 5},                    // fewer than four: the mean
		{[]float64{1000, 2, 3, 1}, 2.5},            // one outlier of four is cut
		{[]float64{8, 1, 2, 3, 4, 5, 6, 7}, 4.5},   // middle four of eight
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 90}, 5}, // nine: two cut from each end
	} {
		if got := midmean(c.xs); !approx(got, c.want) {
			t.Errorf("midmean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(midmean(nil)) {
		t.Error("midmean of nothing must be NaN")
	}
}

func TestTypicalIsMeanOfPerKeyMidmeans(t *testing.T) {
	// Two texts, one fast and one slow: the pooled centre would sit in the
	// gap between them and flip with one extra sample; each text's own
	// does not, and a stall (500) does not reach it.
	by := map[int][]float64{
		0: {10, 11, 12},
		1: {100, 90, 110, 500},
	}
	if got, want := typical(by), (11+105.0)/2; !approx(got, want) {
		t.Errorf("typical = %v, want %v", got, want)
	}
	if !math.IsNaN(typical(nil)) {
		t.Error("typical of nothing must be NaN")
	}
}

func TestQuietSliceEstimators(t *testing.T) {
	// Twenty rounds of 8 ops, two per slice. Four slices stall (a noisy
	// neighbour for 40 % of the run): the mean rate drops by a fifth, the
	// good-side quartile of the ten slice rates does not move.
	ops, secs := make([]float64, 20), make([]float64, 20)
	for i := range ops {
		ops[i], secs[i] = 8, 1
		if i >= 8 && i < 16 {
			secs[i] = 2
		}
	}
	if got := sliceRatios(ops, secs, numSlices); len(got) != 10 || !approx(got[0], 8) || !approx(got[4], 4) {
		t.Errorf("sliceRatios = %v", got)
	}
	if got := quietRate(ops, secs); !approx(got, 8) {
		t.Errorf("quietRate = %v, want 8", got)
	}
	// The same stalls seen as a cost: seconds per op.
	if got := quietCost(secs, ops); !approx(got, 0.125) {
		t.Errorf("quietCost = %v, want 0.125", got)
	}
	// 13 blocks in 10 slices: three slices get two blocks and nothing is
	// dropped — the last block is in the last slice.
	num := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 100}
	den := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if got := sliceRatios(num, den, numSlices); len(got) != 10 || !approx(got[9], 50.5) || !approx(got[0], 1) {
		t.Errorf("13 blocks = %v", got)
	}
	// Fewer rounds than slices: each round is a slice.
	if got := sliceRatios([]float64{2, 4, 9}, []float64{1, 1, 1}, numSlices); len(got) != 3 || !approx(got[2], 9) {
		t.Errorf("three rounds = %v", got)
	}
	if !math.IsNaN(quietRate(nil, nil)) {
		t.Error("no rounds must give NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, since the acceptance pipeline
// measures spread with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2, 9.5},
		{[]float64{52.2, 57.4, 57.1, 55.8, 52.7}, 52.45, 57.25},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if !approx(q1, c.q1) || !approx(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := maxPairDiff([]float64{100, 110, 90}); !approx(got, 0.2) {
		t.Errorf("maxPairDiff = %v, want 0.2", got)
	}
}
