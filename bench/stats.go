package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks. It returns NaN for an empty input
// so a metric computed from no samples can never read as a plausible 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// midmean is the mean of the middle half of xs (the interquartile mean):
// as robust to outliers as the median, but an average of half the samples
// where the median is one of them.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	return mean(s[cut : len(s)-cut])
}

// typical is the latency estimator every *_p50_ms metric uses: the
// midmean per distinct request text, averaged over the texts. A workload
// rotates texts of different cost, so the pooled distribution is a mixture
// whose centre sits in a gap between two texts' modes and jumps from one
// to the other with the slightest drift; each text's own centre sits
// inside one mode. And the midmean, not the median, of each text: on
// append_read a text has 15 samples over a growing table, the trend
// spreads them wider than the noise does, and their median is one
// sample — the one sent at mid-run (NOISE.md has both on the same runs).
func typical(byKey map[int][]float64) float64 {
	if len(byKey) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, xs := range byKey {
		sum += midmean(xs)
	}
	return sum / float64(len(byKey))
}

// sliceRatios cuts the parallel per-block increments num and den into k
// contiguous slices of as equal a block count as possible and returns
// Σnum/Σden per slice. With fewer than k blocks every block is its own
// slice.
func sliceRatios(num, den []float64, k int) []float64 {
	n := min(len(num), len(den))
	k = min(k, n)
	ratios := make([]float64, 0, k)
	for s := 0; s < k; s++ {
		var a, b float64
		for i := s * n / k; i < (s+1)*n/k; i++ {
			a += num[i]
			b += den[i]
		}
		if b > 0 {
			ratios = append(ratios, a/b)
		}
	}
	return ratios
}

// numSlices is how many slices the measured phase is cut into for the rate and cost estimators.
const numSlices = 10

// quietRate and quietCost estimate a rate (higher is better) and a cost
// per unit (lower is better) as the quartile on the good side of the ten
// slice ratios. The reference box shares its host: neighbours slow it in
// bursts of seconds, sometimes for most of a run, and only ever slow it.
// A median of slices already ignores one stall; the good-side quartile
// also ignores a run that is half stalls, while every slice is still a
// second or more of work with all its periodic costs (GC cycles) inside.
// NOISE.md has the comparison that chose it.
func quietRate(num, den []float64) float64 {
	return percentile(sliceRatios(num, den, numSlices), 0.75)
}

func quietCost(num, den []float64) float64 {
	return percentile(sliceRatios(num, den, numSlices), 0.25)
}

// relDiff is |a−b| over their mean: the symmetric relative difference the
// noise table and -selfcheck report.
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
