package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// declared is the part of BENCHMARK.json the noise tools read.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// readDeclared loads BENCHMARK.json from the repository root, one
// directory above the benchmark's.
func readDeclared() (*declared, error) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method): the
// acceptance pipeline measures spread with that function, so the noise
// tools must agree with it to the digit.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// maxPairDiff is the largest relative difference between any two values.
func maxPairDiff(xs []float64) float64 {
	worst := 0.0
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			worst = math.Max(worst, relDiff(xs[i], xs[j]))
		}
	}
	return worst
}

// runSet runs every workload `runs` times, each with another seed as the
// pipeline does, and returns workload → metric → values.
func runSet(cfg runConfig, runs int, label string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, sp := range specs {
		out[sp.name] = map[string][]float64{}
		for i := 0; i < runs; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, err := runWorkload(c, sp)
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", sp.name, i, err)
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s run %d: %d failed operations", sp.name, i, res.Failed)
			}
			for name, m := range res.Metrics {
				out[sp.name][name] = append(out[sp.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s %s seed %d done\n", label, sp.name, c.seed)
		}
	}
	return out, nil
}

// noiseTable runs the suite n times on unchanged code and prints, per
// metric × workload, the median, the quartiles, the spread and the largest
// pairwise relative difference — the evidence NOISE.md records — beside
// the bound BENCHMARK.json declares and the share of it the spread takes.
// The pipeline rejects a spread above the bound and asks for one under a
// third of it.
func noiseTable(cfg runConfig, n int) int {
	d, err := readDeclared()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	set, err := runSet(cfg, n, "noise")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("| workload | metric | median | q1 | q3 | IQR/median | max pairwise diff | declared bound | spread ÷ bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, sp := range specs {
		for _, e := range d.EndToEnd {
			xs := set[sp.name][e.Name]
			if len(xs) == 0 {
				fmt.Printf("| %s | %s | missing |\n", sp.name, e.Name)
				continue
			}
			q1, q3 := quartiles(xs)
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.2f %% | %.2f %% | %.0f %% | %.2f |\n",
				sp.name, e.Name, median(xs), q1, q3, 100*spread(xs), 100*maxPairDiff(xs), 100*e.Bound, spread(xs)/e.Bound)
		}
	}
	return 0
}

// selfCheck applies the pipeline's acceptance test to the benchmark
// itself: two back-to-back sets of runs of the same code must agree. It
// fails when a metric's spread within a set exceeds its declared bound
// (setup_s excepted, as in the pipeline) or the two sets' medians differ
// by more than the bound.
func selfCheck(cfg runConfig) int {
	const runs = 5
	d, err := readDeclared()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	first, err := runSet(cfg, runs, "set 1")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	second, err := runSet(cfg, runs, "set 2")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bad := 0
	fmt.Printf("%-13s %-22s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "diff", "spread1", "spread2", "bound")
	for _, sp := range specs {
		for _, e := range d.EndToEnd {
			a, b := first[sp.name][e.Name], second[sp.name][e.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-13s %-22s missing\n", sp.name, e.Name)
				bad++
				continue
			}
			diff := relDiff(median(a), median(b))
			sa, sb := spread(a), spread(b)
			verdict := ""
			if diff > e.Bound || (e.Name != "setup_s" && math.Max(sa, sb) > e.Bound) {
				verdict = "  FAIL"
				bad++
			}
			fmt.Printf("%-13s %-22s %12.5g %12.5g %7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				sp.name, e.Name, median(a), median(b), 100*diff, 100*sa, 100*sb, 100*e.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d metric × workload pairs outside their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every pair of medians and every spread within its bound")
	return 0
}
