// Command mdbench regenerates the paper's figures and headline claims and
// runs one ablation per Section 4 optimization. Each experiment prints a
// paper-style table; EXPERIMENTS.md records a captured run next to what
// the paper reports.
//
// Usage:
//
//	mdbench                 # run every experiment
//	mdbench -exp e4         # one experiment
//	mdbench -exp e4 -rows 200000
//	mdbench -json out.json  # also write machine-readable measurements
//	mdbench -out BENCH.json # same document; the BENCH_*.json snapshot path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"mdjoin"
	"mdjoin/internal/agg"
	"mdjoin/internal/baseline"
	"mdjoin/internal/core"
	"mdjoin/internal/cube"
	"mdjoin/internal/engine"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
	"mdjoin/internal/workload"
)

var rowsFlag = flag.Int("rows", 0, "override the detail row count of the selected experiment")
var jsonFlag = flag.String("json", "", "write machine-readable results to this file")
var outFlag = flag.String("out", "", "write the same machine-readable document to this file (the BENCH_*.json snapshot convention)")

// benchResult is one recorded measurement; the -json flag serializes the
// run's full list so CI and the repo's BENCH_*.json snapshots can diff
// numbers without scraping the human-readable tables.
type benchResult struct {
	Exp         string      `json:"exp"`
	Label       string      `json:"label"`
	Rows        int         `json:"rows"`
	NsPerOp     int64       `json:"ns_per_op"`
	AllocsPerOp uint64      `json:"allocs_per_op"`
	Stats       *core.Stats `json:"stats,omitempty"`
}

var (
	jsonResults []benchResult
	curExp      string
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1..e18 or all")
	flag.Parse()

	experiments := []struct {
		id   string
		desc string
		run  func()
	}{
		{"e1", "Figure 1(a): cube-by output and method timings", e1},
		{"e2", "Figure 1(b)/Example 2.2: tri-state pivot", e2},
		{"e3", "Example 2.3: count above cube-cell average", e3},
		{"e4", "Example 2.5 + Section 5: MD-join vs commercial-DBMS plans", e4},
		{"e5", "Figure 2: PIPESORT pipelined paths", e5},
		{"e6", "Theorem 4.1(a): memory-bounded m-scan evaluation", e6},
		{"e7", "Theorem 4.1(b): intra-operator parallelism", e7},
		{"e8", "Theorem 4.2/Obs 4.1: selection pushdown", e8},
		{"e9", "Theorem 4.3: series combining", e9},
		{"e10", "Theorem 4.4: split + equijoin", e10},
		{"e11", "Theorem 4.5: cube computation strategies", e11},
		{"e12", "Section 4.5: indexing the base-values table", e12},
		{"e13", "Section 5: dialect round-trip of the worked examples", e13},
		{"e14", "Theorem 4.1 over a disk-resident detail: memory/scan trade", e14},
		{"e15", "probe pipeline: fingerprint pre-filter on low-hit-rate θ", e15},
		{"e17", "cross-query shared scans: concurrent queries over one R vs N relations", e17},
		{"e18", "incremental maintenance: 1% delta append vs full re-evaluation", e18},
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		ran = true
		curExp = e.id
		fmt.Printf("=== %s: %s ===\n", e.id, e.desc)
		e.run()
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "mdbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *jsonFlag != "" {
		writeJSON(*jsonFlag)
	}
	if *outFlag != "" {
		writeJSON(*outFlag)
	}
}

func writeJSON(path string) {
	doc := struct {
		GOMAXPROCS int           `json:"gomaxprocs"`
		Results    []benchResult `json:"results"`
	}{runtime.GOMAXPROCS(0), jsonResults}
	data, err := json.MarshalIndent(doc, "", "  ")
	check(err)
	check(os.WriteFile(path, append(data, '\n'), 0o644))
	fmt.Printf("wrote %d measurements to %s\n", len(jsonResults), path)
}

// ------------------------------------------------------------- helpers

func rows(def int) int {
	if *rowsFlag > 0 {
		return *rowsFlag
	}
	return def
}

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// record times f like timeIt and additionally captures one benchResult
// (wall time, heap allocation count from runtime.MemStats, and optionally
// the run's Stats) for the -json output. stats may be nil; it is attached
// by pointer so the caller can fill it inside f.
func record(label string, rows int, stats *core.Stats, f func()) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	jsonResults = append(jsonResults, benchResult{
		Exp:         curExp,
		Label:       label,
		Rows:        rows,
		NsPerOp:     d.Nanoseconds(),
		AllocsPerOp: m1.Mallocs - m0.Mallocs,
		Stats:       stats,
	})
	return d
}

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdbench:", err)
		os.Exit(1)
	}
	return v
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdbench:", err)
		os.Exit(1)
	}
}

func sales(n int, seed int64) *table.Table {
	return workload.Sales(workload.SalesConfig{Rows: n, Customers: 200, Products: 30, Seed: seed})
}

// ---------------------------------------------------------------- e1

func e1() {
	detail := workload.Sales(workload.SalesConfig{Rows: rows(20000), Products: 8, States: 5, Seed: 1})
	dims := []string{"prod", "month", "state"}
	specs := []agg.Spec{agg.NewSpec("sum", expr.C("sale"), "sum_sale")}

	out := must(cube.Compute(detail, dims, specs, cube.Options{Method: cube.Rollup}))
	out.SortBy("prod", "month", "state")
	fmt.Printf("cube(%s): %d cells over %d detail rows; Figure 1(a) layout sample:\n",
		strings.Join(dims, ","), out.Len(), detail.Len())
	fmt.Println(head(out, 6))
	for _, m := range []cube.Method{cube.Naive, cube.Rollup, cube.PipeSort, cube.MDJoinPass, cube.PartitionedCube} {
		d := record(fmt.Sprint(m), detail.Len(), nil, func() { must(cube.Compute(detail, dims, specs, cube.Options{Method: m})) })
		fmt.Printf("  %-12s %10v\n", m, d)
	}
}

// ---------------------------------------------------------------- e2

func e2() {
	detail := workload.Sales(workload.SalesConfig{Rows: rows(20000), Customers: 8, States: 5, Seed: 2})
	base := must(cube.DistinctBase(detail, "cust"))
	phase := func(state, as string) core.Phase {
		return core.Phase{
			Aggs: []agg.Spec{agg.NewSpec("avg", expr.QC("R", "sale"), as)},
			Theta: expr.And(
				expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
				expr.Eq(expr.QC("R", "state"), expr.S(state))),
		}
	}
	var stats core.Stats
	out := must(core.Eval(base, detail, []core.Phase{
		phase("NY", "avg_ny"), phase("NJ", "avg_nj"), phase("CT", "avg_ct"),
	}, core.Options{Stats: &stats}))
	out.SortBy("cust")
	fmt.Println(head(out, 8))
	fmt.Printf("detail scans: %d (three restricted aggregates, one generalized MD-join)\n", stats.DetailScans)
}

// ---------------------------------------------------------------- e3

func e3() {
	detail := workload.Sales(workload.SalesConfig{Rows: rows(10000), Products: 5, States: 3, Seed: 3})
	base := must(cube.CubeBase(detail, "prod", "month"))
	steps := []core.Step{
		{Detail: "Sales", Phase: core.Phase{
			Aggs:  []agg.Spec{agg.NewSpec("avg", expr.QC("R", "sale"), "avg_sale")},
			Theta: cube.Theta("prod", "month"),
		}},
		{Detail: "Sales", Phase: core.Phase{
			Aggs: []agg.Spec{agg.NewSpec("count", nil, "n_above")},
			Theta: expr.And(cube.Theta("prod", "month"),
				expr.Gt(expr.QC("R", "sale"), expr.C("avg_sale"))),
		}},
	}
	out := must(core.EvalSeries(base, map[string]*table.Table{"Sales": detail}, steps, core.Options{}))
	out.SortBy("prod", "month")
	fmt.Println(head(out, 6))
	fmt.Printf("%d cube cells, each with its own above-average count (cube-by alone cannot express this)\n", out.Len())
}

// ---------------------------------------------------------------- e4

func e4() {
	fmt.Println("Example 2.5 per (prod,month): MD-join vs multi-block join plan vs correlated subqueries")
	fmt.Printf("%10s %8s %12s %12s %12s %9s %9s\n", "|R|", "|B|", "mdjoin", "joinplan", "correlated", "vs join", "vs corr")
	sizes := []int{10000, 50000, 100000}
	if *rowsFlag > 0 {
		sizes = []int{*rowsFlag}
	}
	for _, n := range sizes {
		detail := workload.Sales(workload.SalesConfig{Rows: n, Products: 20, Years: 3, FirstYear: 1996, Seed: 4})
		filtered := must(engine.Select(detail, expr.Eq(expr.C("year"), expr.I(1997))))
		base := must(cube.DistinctBase(filtered, "prod", "month"))

		steps := windowSteps()
		var mdOut *table.Table
		md := record("mdjoin", n, nil, func() {
			mdOut = must(core.EvalSeries(base, map[string]*table.Table{"Sales": detail}, steps, core.Options{}))
		})

		subs := windowSubqueries()
		var joinOut *table.Table
		jp := record("joinplan", n, nil, func() { joinOut = must(baseline.JoinPlan(base, detail, subs)) })
		var corrOut *table.Table
		cp := record("correlated", n, nil, func() { corrOut = must(baseline.CorrelatedPlan(base, detail, subs)) })

		// Sanity: all three plans compute the same relation.
		if !joinOut.EqualSet(mdOut) || !corrOut.EqualSet(mdOut) {
			fmt.Println("WARNING: plans disagree:", mdOut.Diff(joinOut), "|", mdOut.Diff(corrOut))
		}
		fmt.Printf("%10d %8d %12v %12v %12v %8.1fx %8.1fx\n",
			n, base.Len(), md, jp, cp,
			float64(jp)/float64(md), float64(cp)/float64(md))
	}
	fmt.Println("(paper, Section 5: MD-join prototype an order of magnitude faster than a commercial DBMS)")
}

func windowSteps() []core.Step {
	prodEq := expr.Eq(expr.QC("R", "prod"), expr.C("prod"))
	return []core.Step{
		{Detail: "Sales", Phase: core.Phase{
			Aggs: []agg.Spec{agg.NewSpec("avg", expr.QC("R", "sale"), "avg_prev")},
			Theta: expr.And(prodEq,
				expr.Eq(expr.QC("R", "month"), expr.Sub(expr.C("month"), expr.I(1)))),
		}},
		{Detail: "Sales", Phase: core.Phase{
			Aggs: []agg.Spec{agg.NewSpec("avg", expr.QC("R", "sale"), "avg_next")},
			Theta: expr.And(prodEq,
				expr.Eq(expr.QC("R", "month"), expr.Add(expr.C("month"), expr.I(1)))),
		}},
		{Detail: "Sales", Phase: core.Phase{
			Aggs: []agg.Spec{agg.NewSpec("count", nil, "n")},
			Theta: expr.And(prodEq,
				expr.Eq(expr.QC("R", "month"), expr.C("month")),
				expr.Gt(expr.QC("R", "sale"), expr.C("avg_prev")),
				expr.Lt(expr.QC("R", "sale"), expr.C("avg_next"))),
		}},
	}
}

func windowSubqueries() []baseline.Subquery {
	return []baseline.Subquery{
		{
			Keys:   []string{"prod", "month"},
			JoinOn: map[string]expr.Expr{"month": expr.Add(expr.C("month"), expr.I(1))},
			Aggs:   []agg.Spec{agg.NewSpec("avg", expr.C("sale"), "avg_prev")},
		},
		{
			Keys:   []string{"prod", "month"},
			JoinOn: map[string]expr.Expr{"month": expr.Sub(expr.C("month"), expr.I(1))},
			Aggs:   []agg.Spec{agg.NewSpec("avg", expr.C("sale"), "avg_next")},
		},
		{
			// The final correlated block: count sales between the
			// neighbouring months' averages.
			Keys: []string{"prod", "month"},
			Aggs: []agg.Spec{agg.NewSpec("count", nil, "n")},
			Correlated: expr.And(
				expr.Gt(expr.C("sale"), expr.QC("b", "avg_prev")),
				expr.Lt(expr.C("sale"), expr.QC("b", "avg_next"))),
		},
	}
}

// ---------------------------------------------------------------- e5

func e5() {
	detail := workload.Sales(workload.SalesConfig{Rows: rows(5000), Products: 40, Seed: 5})
	for _, dims := range [][]string{{"prod", "month"}, {"prod", "month", "state"}} {
		lat := must(cube.NewLattice(detail, dims))
		plan := cube.PlanPipeSort(lat)
		fmt.Printf("cube(%s) pipelined paths:\n%s\n", strings.Join(dims, ","), indent(plan.String()))
	}
	fmt.Println("(compare Figure 2: one pipeline from the finest sort, dashed resort paths for the rest)")
}

// ---------------------------------------------------------------- e6

func e6() {
	detail := sales(rows(100000), 6)
	base := must(cube.DistinctBase(detail, "cust", "month"))
	theta := expr.And(
		expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
		expr.Eq(expr.QC("R", "month"), expr.C("month")))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}

	fmt.Printf("|B| = %d; Theorem 4.1 partitions trade scans of R for resident base rows\n", base.Len())
	fmt.Printf("%12s %8s %12s\n", "maxBaseRows", "scans", "time")
	for _, m := range []int{base.Len(), (base.Len() + 1) / 2, (base.Len() + 3) / 4, (base.Len() + 7) / 8} {
		stats := &core.Stats{}
		d := record(fmt.Sprintf("maxbase-%d", m), detail.Len(), stats, func() {
			must(core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}},
				core.Options{MaxBaseRows: m, Stats: stats}))
		})
		fmt.Printf("%12d %8d %12v\n", m, stats.DetailScans, d)
	}
}

// ---------------------------------------------------------------- e7

func e7() {
	detail := sales(rows(200000), 7)
	base := must(cube.DistinctBase(detail, "cust", "month"))
	theta := expr.And(
		expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
		expr.Eq(expr.QC("R", "month"), expr.C("month")))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total"), agg.NewSpec("avg", expr.QC("R", "sale"), "mean")}

	fmt.Printf("|R| = %d, |B| = %d, GOMAXPROCS = %d\n", detail.Len(), base.Len(), runtime.GOMAXPROCS(0))
	fmt.Printf("%4s %16s %16s\n", "p", "B-partitioned", "R-partitioned")
	var t1 time.Duration
	for _, p := range []int{1, 2, 4, 8} {
		db := record(fmt.Sprintf("base-par-%d", p), detail.Len(), nil, func() {
			must(core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, core.Options{Parallelism: p}))
		})
		dr := record(fmt.Sprintf("detail-par-%d", p), detail.Len(), nil, func() {
			must(core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, core.Options{DetailParallelism: p}))
		})
		if p == 1 {
			t1 = db
		}
		fmt.Printf("%4d %10v (%3.1fx) %9v\n", p, db, float64(t1)/float64(db), dr)
	}
}

// ---------------------------------------------------------------- e8

func e8() {
	detail := sales(rows(200000), 8)
	base := must(cube.DistinctBase(detail, "prod"))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}

	// A clustered year index is emulated by pre-partitioning the detail on
	// year once (preserving row order within each partition), so the
	// pushed range selection touches only the qualifying partitions — the
	// paper's Example 4.1 setting.
	byYear := map[int64][]table.Row{}
	ycol := detail.Schema.MustColIndex("year")
	for _, r := range detail.Rows {
		y := r[ycol].AsInt()
		byYear[y] = append(byYear[y], r)
	}
	yearSlice := func(lo, hi int64) *table.Table {
		out := table.New(detail.Schema)
		for y := lo; y <= hi; y++ {
			out.Rows = append(out.Rows, byYear[y]...)
		}
		return out
	}

	fmt.Println("Example 4.1 shape: θ restricted to a year range (Theorem 4.2: push the")
	fmt.Println("R-only conjuncts into an index range scan of the detail relation)")
	fmt.Printf("%8s %14s %14s %8s %18s\n", "years", "pushed+index", "full scan", "ratio", "tuples scanned")
	for _, span := range []int64{7, 3, 1} {
		lo, hi := int64(1994), int64(1994+span-1)
		prodEq := expr.Eq(expr.QC("R", "prod"), expr.C("prod"))
		fullTheta := expr.And(prodEq,
			expr.Ge(expr.QC("R", "year"), expr.I(lo)),
			expr.Le(expr.QC("R", "year"), expr.I(hi)))
		sOn, sOff := &core.Stats{}, &core.Stats{}
		// Theorem 4.2 applied: the range moved out of θ into the scan.
		on := record(fmt.Sprintf("pushed-%dy", span), detail.Len(), sOn, func() {
			pruned := yearSlice(lo, hi)
			must(core.Eval(base, pruned, []core.Phase{{Aggs: specs, Theta: prodEq}}, core.Options{Stats: sOn}))
		})
		off := record(fmt.Sprintf("fullscan-%dy", span), detail.Len(), sOff, func() {
			must(core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: fullTheta}}, core.Options{DisablePushdown: true, Stats: sOff}))
		})
		fmt.Printf("%8d %14v %14v %7.1fx %8d vs %6d\n",
			span, on, off, float64(off)/float64(on), sOn.TuplesScanned, sOff.TuplesScanned)
	}
}

// ---------------------------------------------------------------- e9

func e9() {
	detail := sales(rows(100000), 9)
	base := must(cube.DistinctBase(detail, "cust"))
	mkPhase := func(month int64) core.Phase {
		return core.Phase{
			Aggs: []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), fmt.Sprintf("m%d", month))},
			Theta: expr.And(
				expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
				expr.Eq(expr.QC("R", "month"), expr.I(month))),
		}
	}
	fmt.Println("k independent MD-joins: k separate scans vs one generalized MD-join (Theorem 4.3)")
	fmt.Println("memory-resident detail (scan ≈ free), then disk-resident detail (scan = CSV read, the paper's cost model)")

	// Disk-resident variant: each scan streams and parses the relation
	// from a CSV file, the cost regime the paper's scan counting assumes.
	tmp, err := os.CreateTemp("", "mdbench-sales-*.csv")
	check(err)
	defer os.Remove(tmp.Name())
	check(table.WriteCSV(tmp, detail))
	check(tmp.Close())
	loadDetail := func() *table.Table { return must(table.ReadCSVFile(tmp.Name())) }

	fmt.Printf("%4s %14s %14s %8s %14s %14s %8s\n",
		"k", "mem sep", "mem comb", "ratio", "disk sep", "disk comb", "ratio")
	for _, k := range []int{2, 4, 8} {
		var phases []core.Phase
		for i := 0; i < k; i++ {
			phases = append(phases, mkPhase(int64(i+1)))
		}
		sep := record(fmt.Sprintf("mem-separate-k%d", k), detail.Len(), nil, func() {
			cur := base
			for _, ph := range phases {
				cur = must(core.Eval(cur, detail, []core.Phase{ph}, core.Options{}))
			}
		})
		comb := record(fmt.Sprintf("mem-combined-k%d", k), detail.Len(), nil, func() {
			must(core.Eval(base, detail, phases, core.Options{}))
		})
		dsep := record(fmt.Sprintf("disk-separate-k%d", k), detail.Len(), nil, func() {
			cur := base
			for _, ph := range phases {
				cur = must(core.Eval(cur, loadDetail(), []core.Phase{ph}, core.Options{}))
			}
		})
		dcomb := record(fmt.Sprintf("disk-combined-k%d", k), detail.Len(), nil, func() {
			must(core.Eval(base, loadDetail(), phases, core.Options{}))
		})
		fmt.Printf("%4d %14v %14v %7.1fx %14v %14v %7.1fx\n",
			k, sep, comb, float64(sep)/float64(comb),
			dsep, dcomb, float64(dsep)/float64(dcomb))
	}
}

// ---------------------------------------------------------------- e10

func e10() {
	detail := sales(rows(100000), 10)
	payments := workload.Payments(workload.PaymentsConfig{Rows: rows(100000) / 2, Customers: 200, Seed: 10})
	base := must(cube.DistinctBase(detail, "cust"))
	theta1 := expr.Eq(expr.QC("R", "cust"), expr.C("cust"))
	l1 := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total_sales")}
	l2 := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "amount"), "total_paid")}

	var seqOut, splitOut *table.Table
	seq := record("sequential", detail.Len(), nil, func() {
		mid := must(core.MDJoin(base, detail, l1, theta1))
		seqOut = must(core.MDJoin(mid, payments, l2, theta1))
	})
	split := record("split-join", detail.Len(), nil, func() {
		left := must(core.MDJoin(base, detail, l1, theta1))
		right := must(core.MDJoin(base, payments, l2, theta1))
		splitOut = must(core.SplitJoin(left, right, []string{"cust"}))
	})
	agree := seqOut.EqualSet(splitOut)
	fmt.Printf("sequential series: %v\nsplit + equijoin:  %v\nresults agree: %v (Theorem 4.4)\n", seq, split, agree)
	fmt.Println("(the split halves are independent — a distributed system runs them at the data sources)")
}

// ---------------------------------------------------------------- e11

func e11() {
	fmt.Println("cube computation strategies (sum + count measures)")
	fmt.Printf("%8s %6s %12s %12s %12s %12s %12s\n", "|R|", "dims", "naive", "rollup", "pipesort", "mdjoin", "partitioned")
	for _, cfg := range []struct {
		n    int
		dims []string
	}{
		{rows(50000), []string{"prod", "month"}},
		{rows(50000), []string{"prod", "month", "state"}},
		{rows(50000), []string{"cust", "prod", "month", "state"}},
	} {
		detail := workload.Sales(workload.SalesConfig{Rows: cfg.n, Customers: 50, Products: 12, States: 6, Seed: 11})
		specs := []agg.Spec{agg.NewSpec("sum", expr.C("sale"), "total"), agg.NewSpec("count", nil, "n")}
		var ds []time.Duration
		for _, m := range []cube.Method{cube.Naive, cube.Rollup, cube.PipeSort, cube.MDJoinPass, cube.PartitionedCube} {
			m := m
			ds = append(ds, record(fmt.Sprintf("%v-%dd", m, len(cfg.dims)), cfg.n, nil, func() {
				must(cube.Compute(detail, cfg.dims, specs, cube.Options{Method: m}))
			}))
		}
		fmt.Printf("%8d %6d %12v %12v %12v %12v %12v\n", cfg.n, len(cfg.dims), ds[0], ds[1], ds[2], ds[3], ds[4])
	}
	fmt.Println("(Theorem 4.5: rollup/pipesort reuse finer cuboids; naive recomputes from detail 2^n times)")
}

// ---------------------------------------------------------------- e12

func e12() {
	detail := sales(rows(50000), 12)
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}
	fmt.Println("Algorithm 3.1 nested loop vs Section 4.5 hash index on B")
	fmt.Println("(columnar = chunked typed-vector executor [default], scalar = map-index")
	fmt.Println(" tuple-at-a-time)")
	fmt.Printf("%8s %14s %14s %14s %10s\n", "|B|", "columnar", "scalar", "nested-loop", "nl/col")
	for _, nb := range []int{100, 1000, 5000} {
		base := must(cube.DistinctBase(detail, "cust", "month"))
		if base.Len() > nb {
			base.Rows = base.Rows[:nb]
		}
		theta := expr.And(
			expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
			expr.Eq(expr.QC("R", "month"), expr.C("month")))
		sIdx := &core.Stats{}
		// Label kept as "indexed" so BENCH_*.json snapshots diff across PRs.
		idx := record(fmt.Sprintf("indexed-b%d", base.Len()), detail.Len(), sIdx, func() {
			must(core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, core.Options{Stats: sIdx}))
		})
		// Every configuration records its Stats so the -json snapshot
		// carries the per-phase tier/kernel counters for all three.
		sSc := &core.Stats{}
		sc := record(fmt.Sprintf("scalar-b%d", base.Len()), detail.Len(), sSc, func() {
			must(core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, core.Options{DisableBatch: true, Stats: sSc}))
		})
		sNL := &core.Stats{}
		nl := record(fmt.Sprintf("nested-b%d", base.Len()), detail.Len(), sNL, func() {
			must(core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, core.Options{DisableIndex: true, Stats: sNL}))
		})
		fmt.Printf("%8d %14v %14v %14v %9.1fx\n", base.Len(), idx, sc, nl, float64(nl)/float64(idx))
	}
}

// ---------------------------------------------------------------- e13

func e13() {
	detail := workload.Sales(workload.SalesConfig{Rows: rows(5000), Products: 6, States: 4, Years: 3, FirstYear: 1996, Seed: 13})
	cat := mdjoin.Catalog{"Sales": detail}
	queries := []struct{ label, src string }{
		{"Example 5.1 (cube)", "select prod, month, state, sum(sale) as total from Sales analyze by cube(prod, month, state)"},
		{"Example 5.1 (unpivot)", "select prod, month, state, sum(sale) as total from Sales analyze by unpivot(prod, month, state)"},
		{"Example 2.2", `select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, avg(Z.sale) as avg_ct
			from Sales group by cust : X, Y, Z
			such that X.cust = cust and X.state = 'NY', Y.cust = cust and Y.state = 'NJ', Z.cust = cust and Z.state = 'CT'`},
		{"Example 2.3", `select prod, month, avg(X.sale) as avg_sale, count(Y.*) as n_above
			from Sales analyze by cube(prod, month)
			such that X.prod = prod and X.month = month,
			          Y.prod = prod and Y.month = month and Y.sale > avg(X.sale)`},
		{"Example 2.5", `select prod, month, count(Z.*) as n from Sales where year = 1997
			group by prod, month : X, Y, Z
			such that X.prod = prod and X.month = month - 1,
			          Y.prod = prod and Y.month = month + 1,
			          Z.prod = prod and Z.month = month and Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)`},
		{"Example 4.1", `select prod, sum(X.sale) as total_96_97, sum(Y.sale) as total_98
			from Sales group by prod : X, Y
			such that X.prod = prod and X.year >= 1996 and X.year <= 1997, Y.prod = prod and Y.year = 1998`},
	}
	for _, q := range queries {
		d := record(q.label, detail.Len(), nil, func() { must(mdjoin.Query(q.src, cat)) })
		out := must(mdjoin.Query(q.src, cat))
		fmt.Printf("  %-22s %6d rows  %10v\n", q.label, out.Len(), d)
	}
}

// ---------------------------------------------------------------- e14

func e14() {
	detail := sales(rows(100000), 14)
	tmp, err := os.CreateTemp("", "mdbench-stream-*.csv")
	check(err)
	defer os.Remove(tmp.Name())
	check(table.WriteCSV(tmp, detail))
	check(tmp.Close())
	src, err := table.NewCSVSource(tmp.Name())
	check(err)

	base := must(cube.DistinctBase(detail, "cust", "month"))
	phase := core.Phase{
		Aggs: []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")},
		Theta: expr.And(
			expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
			expr.Eq(expr.QC("R", "month"), expr.C("month"))),
	}
	fmt.Printf("detail on disk: %d rows; |B| = %d\n", detail.Len(), base.Len())
	fmt.Printf("%14s %8s %12s\n", "budget", "scans", "time")
	for _, budget := range []int{0, 1 << 20, 256 << 10, 64 << 10} {
		label := "unbounded"
		if budget > 0 {
			label = fmt.Sprintf("%d KiB", budget/1024)
		}
		stats := &core.Stats{}
		d := record(label, detail.Len(), stats, func() {
			must(core.EvalSource(base, src, []core.Phase{phase},
				core.Options{MemoryBudgetBytes: budget, Stats: stats}))
		})
		fmt.Printf("%14s %8d %12v\n", label, stats.DetailScans, d)
	}
	fmt.Println("(Theorem 4.1: resident base rows trade against literal re-reads of the file)")
}

// ---------------------------------------------------------------- e15

func e15() {
	detail := workload.Sales(workload.SalesConfig{Rows: rows(200000), Customers: 5000, Products: 30, Seed: 15})
	full := must(cube.DistinctBase(detail, "cust", "month"))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}
	theta := expr.And(
		expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
		expr.Eq(expr.QC("R", "month"), expr.C("month")))
	fmt.Println("low-hit-rate θ: B keeps a sliver of the key domain, so almost every probe")
	fmt.Println("misses; the index's 8-bit tag filter resolves misses without loading the")
	fmt.Println("hash array (filter counters from PhaseStats; scalar has none)")
	fmt.Printf("%8s %12s %12s %10s %10s %8s\n",
		"|B|", "columnar", "scalar", "checked", "skipped", "hit%")
	for _, nb := range []int{50, 200} {
		base := &table.Table{Schema: full.Schema, Rows: full.Rows}
		if base.Len() > nb {
			base.Rows = base.Rows[:nb]
		}
		sCol := &core.Stats{}
		col := record(fmt.Sprintf("filter-b%d", base.Len()), detail.Len(), sCol, func() {
			must(core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, core.Options{Stats: sCol}))
		})
		sSc := &core.Stats{}
		sc := record(fmt.Sprintf("filter-scalar-b%d", base.Len()), detail.Len(), sSc, func() {
			must(core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, core.Options{DisableBatch: true, Stats: sSc}))
		})
		ph := sCol.Phases[0]
		hitPct := 0.0
		if ph.IndexProbes > 0 {
			hitPct = 100 * float64(ph.IndexHits) / float64(ph.IndexProbes)
		}
		fmt.Printf("%8d %12v %12v %10d %10d %7.2f%%\n",
			base.Len(), col, sc, ph.FilterChecked, ph.FilterSkipped, hitPct)
	}
}

// ---------------------------------------------------------------- e17

func e17() {
	n := rows(100000)
	const nq = 8       // concurrent queries per burst
	const rounds = 4   // bursts per configuration
	const measures = 8 // fact-table measure columns
	parent := sales(n, 17)
	// A wide multi-measure fact table (the usual OLAP detail shape),
	// derived per query session: a plain table carries no prebuilt chunk
	// mirror, so every scan re-transposes each batch — the per-batch cost
	// a merged scan pays once for the whole group while solo queries pay
	// it once each.
	cols := []string{"cust", "month"}
	for m := 1; m <= measures; m++ {
		cols = append(cols, fmt.Sprintf("m%d", m))
	}
	wide := table.New(table.SchemaOf(cols...))
	ci := parent.Schema.MustColIndex("cust")
	mi := parent.Schema.MustColIndex("month")
	si := parent.Schema.MustColIndex("sale")
	for _, r := range parent.Rows {
		row := table.Row{r[ci], r[mi]}
		sale := r[si].AsFloat()
		for m := 1; m <= measures; m++ {
			row = append(row, table.Float(sale*float64(m)))
		}
		wide.Append(row)
	}
	sameR := wide
	distinctR := make([]*table.Table, nq)
	for i := range distinctR {
		distinctR[i] = &table.Table{Schema: wide.Schema, Rows: wide.Rows}
	}
	full := must(cube.DistinctBase(wide, "cust", "month"))
	base := &table.Table{Schema: full.Schema, Rows: full.Rows}
	if base.Len() > 60 {
		base.Rows = base.Rows[:60]
	}
	// E12-class probe (indexed equi-keys on B) aggregating every measure.
	specs := []agg.Spec{agg.NewSpec("count", nil, "n")}
	for m := 1; m <= measures; m++ {
		specs = append(specs, agg.NewSpec("sum", expr.QC("R", fmt.Sprintf("m%d", m)), fmt.Sprintf("t%d", m)))
	}
	phases := []core.Phase{{
		Aggs: specs,
		Theta: expr.And(
			expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
			expr.Eq(expr.QC("R", "month"), expr.C("month"))),
	}}
	opt := core.Options{DetailParallelism: runtime.GOMAXPROCS(0)}

	// burst launches one round of nq concurrent queries, query i against
	// rel(i), and waits them out.
	burst := func(se *core.SharedExecutor, rel func(int) *table.Table) {
		var wg sync.WaitGroup
		for i := 0; i < nq; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if se != nil {
					must(se.Eval(base, rel(i), phases, opt))
					return
				}
				must(core.Eval(base, rel(i), phases, opt))
			}(i)
		}
		wg.Wait()
	}
	run := func(label string, se *core.SharedExecutor, rel func(int) *table.Table) time.Duration {
		return record(label, n, nil, func() {
			for r := 0; r < rounds; r++ {
				burst(se, rel)
			}
		})
	}

	same := func(int) *table.Table { return sameR }
	each := func(i int) *table.Table { return distinctR[i] }

	solo := run(fmt.Sprintf("share-solo-n%d", nq), nil, same)
	seSame := core.NewSharedExecutor(2*time.Millisecond, nq)
	merged := run(fmt.Sprintf("share-merged-n%d", nq), seSame, same)
	seDist := core.NewSharedExecutor(2*time.Millisecond, nq)
	dist := run(fmt.Sprintf("share-distinct-n%d", nq), seDist, each)

	qps := func(d time.Duration) float64 {
		return float64(nq*rounds) / d.Seconds()
	}
	fmt.Printf("%d queries/burst x %d bursts, |R| = %d (derived: no chunk mirror), |B| = %d, GOMAXPROCS = %d\n",
		nq, rounds, n, base.Len(), runtime.GOMAXPROCS(0))
	fmt.Printf("%22s %14s %12s %14s\n", "configuration", "wall", "queries/s", "merged scans")
	st := seSame.Snapshot()
	sd := seDist.Snapshot()
	fmt.Printf("%22s %14v %12.1f %14s\n", "solo (no coordinator)", solo, qps(solo), "-")
	fmt.Printf("%22s %14v %12.1f %14d\n", "shared, one R", merged, qps(merged), st.GroupsRun)
	fmt.Printf("%22s %14v %12.1f %14d\n", fmt.Sprintf("shared, %d relations", nq), dist, qps(dist), sd.GroupsRun)
	fmt.Printf("one-R speedup over solo: %.1fx; scans saved: %d of %d submissions\n",
		float64(solo)/float64(merged), st.ScansSaved, st.Submitted)
	fmt.Printf("(scan count follows distinct relations, not query count: %d groups for one R, %d for %d relations)\n",
		st.GroupsRun, sd.GroupsRun, nq)
}

// ---------------------------------------------------------------- e18

func e18() {
	n := rows(50000)
	deltaRows := n / 100 // 1% of the backfill per round
	const roundsN = 8
	detail := sales(n, 18)
	full := must(cube.DistinctBase(detail, "cust", "month"))
	base := &table.Table{Schema: full.Schema, Rows: full.Rows}
	if base.Len() > 1000 {
		base.Rows = base.Rows[:1000]
	}
	// E12-class shape: indexed equi-keys on B's cube dimensions.
	phases := []core.Phase{{
		Aggs: []agg.Spec{
			agg.NewSpec("count", nil, "n"),
			agg.NewSpec("sum", expr.QC("R", "sale"), "total"),
		},
		Theta: expr.And(
			expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
			expr.Eq(expr.QC("R", "month"), expr.C("month"))),
	}}
	opt := core.Options{}

	// Deltas come from a disjoint pool so each round appends fresh rows.
	pool := sales(deltaRows*roundsN, 99)
	delta := func(r int) []table.Row {
		return pool.Rows[r*deltaRows : (r+1)*deltaRows]
	}

	inc := must(core.NewIncremental(base, detail.Schema, phases, opt, core.IncrementalConfig{}))
	check(inc.Append(detail.Rows))
	acc := &table.Table{Schema: detail.Schema, Rows: detail.Rows}

	// Incremental side: each round folds the delta through the probe
	// pipeline and assembles a snapshot — work proportional to the delta
	// plus |B|, never to the accumulated history.
	var incSnap *table.Table
	dInc := record(fmt.Sprintf("inc-append-%drows", deltaRows), n, nil, func() {
		for r := 0; r < roundsN; r++ {
			check(inc.Append(delta(r)))
			incSnap = must(inc.Snapshot())
		}
	})

	// Full side: the same deltas, but each round re-evaluates the MD-join
	// over everything accumulated so far — the cost a view without
	// incremental maintenance pays on every refresh.
	var fullSnap *table.Table
	dFull := record(fmt.Sprintf("full-reeval-%drows", deltaRows), n, nil, func() {
		for r := 0; r < roundsN; r++ {
			acc = &table.Table{
				Schema: acc.Schema,
				Rows:   append(acc.Rows[:len(acc.Rows):len(acc.Rows)], delta(r)...),
			}
			fullSnap = must(core.Eval(base, acc, phases, opt))
		}
	})
	if d := fullSnap.Diff(incSnap); d != "" {
		fmt.Fprintln(os.Stderr, "mdbench: incremental snapshot diverged from re-evaluation:\n"+d)
		os.Exit(1)
	}

	perInc := dInc / roundsN
	perFull := dFull / roundsN
	fmt.Printf("backfill |R| = %d, |B| = %d, delta = %d rows (1%%), %d rounds\n",
		n, base.Len(), deltaRows, roundsN)
	fmt.Printf("%24s %16s %16s\n", "maintenance strategy", "total", "per delta")
	fmt.Printf("%24s %16v %16v\n", "incremental append", dInc, perInc)
	fmt.Printf("%24s %16v %16v\n", "full re-evaluation", dFull, perFull)
	fmt.Printf("speedup per delta: %.1fx (snapshots verified identical)\n",
		float64(perFull)/float64(perInc))
}

// ------------------------------------------------------------- format

func head(t *table.Table, n int) string {
	c := table.New(t.Schema)
	for i := 0; i < len(t.Rows) && i < n; i++ {
		c.Append(t.Rows[i])
	}
	return strings.TrimRight(c.String(), "\n")
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n")
}
