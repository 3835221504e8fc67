// Package-level benchmarks: one testing.B benchmark per experiment of
// EXPERIMENTS.md (E1..E13). cmd/mdbench prints the paper-style tables;
// these benches give `go test -bench` numbers for regression tracking.
// All inputs are seeded — runs are reproducible.
package mdjoin_test

import (
	"fmt"
	"testing"

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

func benchSales(n int, seed int64) *table.Table {
	return workload.Sales(workload.SalesConfig{
		Rows: n, Customers: 200, Products: 30, Years: 3, FirstYear: 1996, Seed: seed,
	})
}

// tb returns a helper that unwraps (*table.Table, error) results,
// failing the benchmark on error.
func tb(b *testing.B) func(*table.Table, error) *table.Table {
	return func(t *table.Table, err error) *table.Table {
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
}

// ------------------------------------------------------------------- E1

// BenchmarkE1CubeBy regenerates Figure 1(a): the data cube over
// (prod, month, state), per computation strategy.
func BenchmarkE1CubeBy(b *testing.B) {
	detail := workload.Sales(workload.SalesConfig{Rows: 20000, Products: 8, States: 5, Seed: 1})
	dims := []string{"prod", "month", "state"}
	specs := []agg.Spec{agg.NewSpec("sum", expr.C("sale"), "sum_sale")}
	for _, m := range []cube.Method{cube.Naive, cube.Rollup, cube.PipeSort, cube.MDJoinPass, cube.PartitionedCube} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb(b)(cube.Compute(detail, dims, specs, cube.Options{Method: m}))
			}
		})
	}
}

// ------------------------------------------------------------------- E2

// BenchmarkE2Pivot regenerates Figure 1(b)/Example 2.2: the tri-state
// pivot as a three-phase generalized MD-join (one scan).
func BenchmarkE2Pivot(b *testing.B) {
	detail := workload.Sales(workload.SalesConfig{Rows: 50000, Customers: 100, States: 5, Seed: 2})
	base := tb(b)(cube.DistinctBase(detail, "cust"))
	phase := func(state, as string) core.Phase {
		return core.Phase{
			Aggs: []agg.Spec{agg.NewSpec("avg", expr.QC("R", "sale"), as)},
			Theta: expr.And(
				expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
				expr.Eq(expr.QC("R", "state"), expr.S(state))),
		}
	}
	phases := []core.Phase{phase("NY", "avg_ny"), phase("NJ", "avg_nj"), phase("CT", "avg_ct")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Eval(base, detail, phases, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------------- E3

// BenchmarkE3CubeAboveAvg regenerates Example 2.3: a two-stage dependent
// MD-join series over the cube of (prod, month).
func BenchmarkE3CubeAboveAvg(b *testing.B) {
	detail := workload.Sales(workload.SalesConfig{Rows: 10000, Products: 5, States: 3, Seed: 3})
	base := tb(b)(cube.CubeBase(detail, "prod", "month"))
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
	details := map[string]*table.Table{"Sales": detail}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvalSeries(base, details, steps, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------------- E4

// BenchmarkE4Window regenerates the Section 5 comparison on Example 2.5:
// the MD-join series against the multi-block join plan and the
// correlated-subquery plan of a 2001-era DBMS.
func BenchmarkE4Window(b *testing.B) {
	detail := benchSales(50000, 4)
	filtered := tb(b)(engine.Select(detail, expr.Eq(expr.C("year"), expr.I(1997))))
	base := tb(b)(cube.DistinctBase(filtered, "prod", "month"))
	prodEq := expr.Eq(expr.QC("R", "prod"), expr.C("prod"))
	steps := []core.Step{
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
	subs := []baseline.Subquery{
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
			Keys: []string{"prod", "month"},
			Aggs: []agg.Spec{agg.NewSpec("count", nil, "n")},
			Correlated: expr.And(
				expr.Gt(expr.C("sale"), expr.QC("b", "avg_prev")),
				expr.Lt(expr.C("sale"), expr.QC("b", "avg_next"))),
		},
	}
	details := map[string]*table.Table{"Sales": detail}

	b.Run("mdjoin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.EvalSeries(base, details, steps, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("joinplan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb(b)(baseline.JoinPlan(base, detail, subs))
		}
	})
	b.Run("correlated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb(b)(baseline.CorrelatedPlan(base, detail, subs))
		}
	})
}

// ------------------------------------------------------------------- E5

// BenchmarkE5PipeSortPlan measures PIPESORT path construction (Figure 2's
// plan) across lattice sizes.
func BenchmarkE5PipeSortPlan(b *testing.B) {
	detail := workload.Sales(workload.SalesConfig{Rows: 5000, Products: 40, Seed: 5})
	for _, dims := range [][]string{
		{"prod", "month"},
		{"prod", "month", "state"},
		{"cust", "prod", "month", "state"},
	} {
		lat, err := cube.NewLattice(detail, dims)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("dims-%d", len(dims)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if plan := cube.PlanPipeSort(lat); len(plan.Paths) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
	}
}

// ------------------------------------------------------------------- E6

// BenchmarkE6PartitionedScans measures Theorem 4.1(a): memory-bounded
// evaluation in m scans of the detail relation.
func BenchmarkE6PartitionedScans(b *testing.B) {
	detail := benchSales(100000, 6)
	base := tb(b)(cube.DistinctBase(detail, "cust", "month"))
	theta := expr.And(
		expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
		expr.Eq(expr.QC("R", "month"), expr.C("month")))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}
	for _, m := range []int{1, 2, 4, 8} {
		maxRows := (base.Len() + m - 1) / m
		b.Run(fmt.Sprintf("scans-%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}},
					core.Options{MaxBaseRows: maxRows}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------------- E7

// BenchmarkE7Parallel measures Theorem 4.1(b) parallelism. On a
// single-core host this reports overhead, not speedup; see EXPERIMENTS.md.
func BenchmarkE7Parallel(b *testing.B) {
	detail := benchSales(100000, 7)
	base := tb(b)(cube.DistinctBase(detail, "cust", "month"))
	theta := expr.And(
		expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
		expr.Eq(expr.QC("R", "month"), expr.C("month")))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("base-p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}},
					core.Options{Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("detail-p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}},
					core.Options{DetailParallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------------- E8

// BenchmarkE8Pushdown measures Theorem 4.2: the year-range conjunct
// evaluated in θ versus pushed into a (pre-partitioned, index-emulating)
// range scan of the detail relation.
func BenchmarkE8Pushdown(b *testing.B) {
	detail := benchSales(100000, 8)
	base := tb(b)(cube.DistinctBase(detail, "prod"))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}
	prodEq := expr.Eq(expr.QC("R", "prod"), expr.C("prod"))

	byYear := map[int64][]table.Row{}
	ycol := detail.Schema.MustColIndex("year")
	for _, r := range detail.Rows {
		byYear[r[ycol].AsInt()] = append(byYear[r[ycol].AsInt()], r)
	}
	pruned := table.New(detail.Schema)
	pruned.Rows = byYear[1996]

	fullTheta := expr.And(prodEq, expr.Eq(expr.QC("R", "year"), expr.I(1996)))
	b.Run("pushed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Eval(base, pruned, []core.Phase{{Aggs: specs, Theta: prodEq}}, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unpushed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: fullTheta}},
				core.Options{DisablePushdown: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ------------------------------------------------------------------- E9

// BenchmarkE9SeriesCombine measures Theorem 4.3: k independent MD-joins as
// k operators versus one generalized MD-join.
func BenchmarkE9SeriesCombine(b *testing.B) {
	detail := benchSales(50000, 9)
	base := tb(b)(cube.DistinctBase(detail, "cust"))
	mkPhase := func(month int64) core.Phase {
		return core.Phase{
			Aggs: []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), fmt.Sprintf("m%d", month))},
			Theta: expr.And(
				expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
				expr.Eq(expr.QC("R", "month"), expr.I(month))),
		}
	}
	for _, k := range []int{2, 4, 8} {
		var phases []core.Phase
		for i := 0; i < k; i++ {
			phases = append(phases, mkPhase(int64(i+1)))
		}
		b.Run(fmt.Sprintf("separate-k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cur := base
				for _, ph := range phases {
					var err error
					cur, err = core.Eval(cur, detail, []core.Phase{ph}, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("combined-k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Eval(base, detail, phases, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------------ E10

// BenchmarkE10Split measures Theorem 4.4: the sequential two-detail series
// versus independent MD-joins recombined by equijoin.
func BenchmarkE10Split(b *testing.B) {
	detail := benchSales(50000, 10)
	payments := workload.Payments(workload.PaymentsConfig{Rows: 25000, Customers: 200, Seed: 10})
	base := tb(b)(cube.DistinctBase(detail, "cust"))
	theta := expr.Eq(expr.QC("R", "cust"), expr.C("cust"))
	l1 := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total_sales")}
	l2 := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "amount"), "total_paid")}

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mid := tb(b)(core.MDJoin(base, detail, l1, theta))
			tb(b)(core.MDJoin(mid, payments, l2, theta))
		}
	})
	b.Run("split-join", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			left := tb(b)(core.MDJoin(base, detail, l1, theta))
			right := tb(b)(core.MDJoin(base, payments, l2, theta))
			tb(b)(core.SplitJoin(left, right, []string{"cust"}))
		}
	})
}

// ------------------------------------------------------------------ E11

// BenchmarkE11CubeStrategies measures Theorem 4.5's payoff across cube
// computation strategies and lattice sizes.
func BenchmarkE11CubeStrategies(b *testing.B) {
	detail := workload.Sales(workload.SalesConfig{Rows: 20000, Customers: 50, Products: 12, States: 6, Seed: 11})
	specs := []agg.Spec{agg.NewSpec("sum", expr.C("sale"), "total"), agg.NewSpec("count", nil, "n")}
	for _, dims := range [][]string{
		{"prod", "month"},
		{"prod", "month", "state"},
	} {
		for _, m := range []cube.Method{cube.Naive, cube.Rollup, cube.PipeSort, cube.MDJoinPass, cube.PartitionedCube} {
			b.Run(fmt.Sprintf("%s-dims%d", m, len(dims)), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tb(b)(cube.Compute(detail, dims, specs, cube.Options{Method: m}))
				}
			})
		}
	}
}

// ------------------------------------------------------------------ E12

// BenchmarkE12Index measures Section 4.5: indexed relative-set lookup
// versus the verbatim Algorithm 3.1 nested loop, as |B| grows. The
// indexed variant runs the default columnar chunk executor over the flat
// hash index; scalar is the tuple-at-a-time interpreter over the
// map-backed index (the pre-batch baseline, kept for regression
// comparison).
func BenchmarkE12Index(b *testing.B) {
	detail := benchSales(20000, 12)
	full := tb(b)(cube.DistinctBase(detail, "cust", "month"))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}
	theta := expr.And(
		expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
		expr.Eq(expr.QC("R", "month"), expr.C("month")))
	for _, nb := range []int{100, 1000} {
		base := &table.Table{Schema: full.Schema, Rows: full.Rows}
		if base.Len() > nb {
			base = &table.Table{Schema: full.Schema, Rows: full.Rows[:nb]}
		}
		b.Run(fmt.Sprintf("indexed-b%d", nb), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scalar-b%d", nb), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}},
					core.Options{DisableBatch: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("nested-b%d", nb), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}},
					core.Options{DisableIndex: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------------ E13

// BenchmarkE13Dialect measures the full dialect pipeline (parse, translate,
// optimize, execute) on the paper's worked examples.
func BenchmarkE13Dialect(b *testing.B) {
	detail := workload.Sales(workload.SalesConfig{Rows: 5000, Products: 6, States: 4, Years: 3, FirstYear: 1996, Seed: 13})
	cat := mdjoin.Catalog{"Sales": detail}
	queries := map[string]string{
		"cube": "select prod, month, state, sum(sale) as total from Sales analyze by cube(prod, month, state)",
		"pivot": `select cust, avg(X.sale) as a, avg(Y.sale) as b from Sales group by cust : X, Y
			such that X.cust = cust and X.state = 'NY', Y.cust = cust and Y.state = 'NJ'`,
		"window": `select prod, month, count(Z.*) as n from Sales where year = 1997
			group by prod, month : X, Y, Z
			such that X.prod = prod and X.month = month - 1,
			          Y.prod = prod and Y.month = month + 1,
			          Z.prod = prod and Z.month = month and Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)`,
	}
	for name, src := range queries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mdjoin.Query(src, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------------ E14

// BenchmarkE14Streaming measures Theorem 4.1's memory/scan trade with the
// detail relation streamed from disk: each base partition re-reads the
// CSV file.
func BenchmarkE14Streaming(b *testing.B) {
	detail := benchSales(20000, 14)
	dir := b.TempDir()
	path := dir + "/sales.csv"
	if err := table.WriteCSVFile(path, detail); err != nil {
		b.Fatal(err)
	}
	src, err := table.NewCSVSource(path)
	if err != nil {
		b.Fatal(err)
	}
	base := tb(b)(cube.DistinctBase(detail, "cust", "month"))
	phase := core.Phase{
		Aggs: []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")},
		Theta: expr.And(
			expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
			expr.Eq(expr.QC("R", "month"), expr.C("month"))),
	}
	for _, budget := range []int{0, 64 << 10} {
		name := "unbounded"
		if budget > 0 {
			name = fmt.Sprintf("budget-%dKiB", budget/1024)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.EvalSource(base, src, []core.Phase{phase},
					core.Options{MemoryBudgetBytes: budget}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
