package mdjoin_test

import (
	"os"
	"sync"
	"testing"
	"time"

	"mdjoin/internal/agg"
	"mdjoin/internal/core"
	"mdjoin/internal/cube"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// TestE12BatchGuard is the executor performance tripwire run by
// `make bench` (and `make bench-guard`): on the E12 indexing workload, the
// default columnar executor over the flat hash index must be no slower —
// and must allocate no more — than the retained tuple-at-a-time
// interpreter over the map-backed index (the pre-batch baseline,
// Options.DisableBatch). Timing comparisons are inherently noisy, so the
// guard is opt-in via MDJOIN_BENCH_GUARD and allows a 15% wall-clock
// slack; the allocation comparison is exact. The all-typed plan must also
// stay entirely on the columnar tier's typed kernels: a single
// boxed-fallback element means a chunk column demoted or a kernel lost its
// typed path.
func TestE12BatchGuard(t *testing.T) {
	if os.Getenv("MDJOIN_BENCH_GUARD") == "" {
		t.Skip("set MDJOIN_BENCH_GUARD=1 (or run `make bench`) to run the executor performance guard")
	}

	detail := benchSales(20000, 12)
	full, err := cube.DistinctBase(detail, "cust", "month")
	if err != nil {
		t.Fatal(err)
	}
	base := &table.Table{Schema: full.Schema, Rows: full.Rows}
	if base.Len() > 1000 {
		base.Rows = base.Rows[:1000]
	}
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}
	theta := expr.And(
		expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
		expr.Eq(expr.QC("R", "month"), expr.C("month")))

	run := func(opt core.Options) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	batched := run(core.Options{})
	scalar := run(core.Options{DisableBatch: true})

	t.Logf("batched: %v (%d allocs/op), scalar map-index baseline: %v (%d allocs/op)",
		batched, batched.AllocsPerOp(), scalar, scalar.AllocsPerOp())
	if lim := scalar.NsPerOp() * 115 / 100; batched.NsPerOp() > lim {
		t.Errorf("batched executor regressed: %d ns/op > %d ns/op (scalar baseline %d +15%%)",
			batched.NsPerOp(), lim, scalar.NsPerOp())
	}
	if batched.AllocsPerOp() > scalar.AllocsPerOp() {
		t.Errorf("batched executor allocates more than the scalar baseline: %d > %d allocs/op",
			batched.AllocsPerOp(), scalar.AllocsPerOp())
	}

	// The all-typed E12 plan must run on the columnar tier with zero
	// boxed-fallback elements: the equi-keys hash as typed vectors and the
	// aggregate arguments stay in typed kernels end to end.
	var stats core.Stats
	if _, err := core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, core.Options{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Tier() != core.TierColumnar {
		t.Errorf("all-typed E12 plan left the columnar tier: %v", stats.Tier())
	}
	for pi, ph := range stats.Phases {
		if ph.BoxedElems != 0 {
			t.Errorf("phase %d: %d boxed-fallback elements on an all-typed plan (typed %d)",
				pi, ph.BoxedElems, ph.TypedElems)
		}
	}
}

// TestSharedScanGuard is the cross-query shared-scan tripwire: when N
// concurrent queries target the same detail relation through a
// core.SharedExecutor, the physical detail-scan count must follow the
// number of DISTINCT relations, not the number of queries. The guard is
// deterministic — it asserts on the coordinator's ShareStats (groups run,
// scans saved) and on result/Stats fidelity, never on timing — but runs
// behind the same opt-in gate as the other guards because it spins up
// concurrent query bursts. The throughput side of this story is e17 in
// mdbench (BENCH_pr8.json).
func TestSharedScanGuard(t *testing.T) {
	if os.Getenv("MDJOIN_BENCH_GUARD") == "" {
		t.Skip("set MDJOIN_BENCH_GUARD=1 (or run `make bench`) to run the shared-scan guard")
	}

	const nq = 8
	detail := benchSales(20000, 12)
	full, err := cube.DistinctBase(detail, "cust", "month")
	if err != nil {
		t.Fatal(err)
	}
	base := &table.Table{Schema: full.Schema, Rows: full.Rows}
	if base.Len() > 500 {
		base.Rows = base.Rows[:500]
	}
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}
	theta := expr.And(
		expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
		expr.Eq(expr.QC("R", "month"), expr.C("month")))
	phases := []core.Phase{{Aggs: specs, Theta: theta}}

	want, err := core.Eval(base, detail, phases, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Burst 1: nq concurrent queries over ONE relation. MaxBatch = nq
	// closes the group deterministically on the last arrival; the long
	// window only matters if a submitter stalls.
	se := core.NewSharedExecutor(2*time.Second, nq)
	var wg sync.WaitGroup
	stats := make([]core.Stats, nq)
	for i := 0; i < nq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := se.Eval(base, detail, phases, core.Options{Stats: &stats[i]})
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if d := want.Diff(got); d != "" {
				t.Errorf("query %d result diverged from solo evaluation: %s", i, d)
			}
		}(i)
	}
	wg.Wait()
	st := se.Snapshot()
	if st.GroupsRun != 1 {
		t.Errorf("one relation, %d queries: %d merged scans, want 1", nq, st.GroupsRun)
	}
	if st.ScansSaved != nq-1 {
		t.Errorf("scans saved = %d, want %d", st.ScansSaved, nq-1)
	}
	for i := range stats {
		// Per-caller Stats keep the semantic contract: each query reports
		// its own single scan of R regardless of the physical merge.
		if stats[i].DetailScans != 1 {
			t.Errorf("query %d Stats.DetailScans = %d, want 1", i, stats[i].DetailScans)
		}
	}

	// Burst 2: the same nq queries, each over its own copy of the
	// relation. Nothing can merge: scan count scales with relations.
	distinct := make([]*table.Table, nq)
	for i := range distinct {
		distinct[i] = &table.Table{Schema: detail.Schema, Rows: detail.Rows}
	}
	se2 := core.NewSharedExecutor(30*time.Millisecond, nq)
	for i := 0; i < nq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := se2.Eval(base, distinct[i], phases, core.Options{})
			if err != nil {
				t.Errorf("distinct query %d: %v", i, err)
				return
			}
			if d := want.Diff(got); d != "" {
				t.Errorf("distinct query %d result diverged: %s", i, d)
			}
		}(i)
	}
	wg.Wait()
	st2 := se2.Snapshot()
	if st2.GroupsRun != nq {
		t.Errorf("%d distinct relations: %d merged scans, want %d", nq, st2.GroupsRun, nq)
	}
	if st2.ScansSaved != 0 {
		t.Errorf("distinct relations saved %d scans, want 0", st2.ScansSaved)
	}
}

// TestIncrementalDeltaGuard is the incremental-maintenance tripwire: on
// the E12 workload, folding a 1% delta into a live core.Incremental
// (Append + Snapshot) must be at least 10× cheaper than re-evaluating the
// MD-join over the full accumulated relation — the whole point of the
// operator. Isolated runs measure 20×+ (e18 in mdbench, BENCH_pr9.json):
// the append touches delta×|B| candidate pairs plus the snapshot assembly
// while the re-evaluation touches |R|×|B|, so losing the ratio means the
// append path started rescanning history (or the snapshot started
// re-aggregating from scratch). 10× leaves noise headroom on a 100×
// data-size gap. Same opt-in gate as TestE12BatchGuard.
func TestIncrementalDeltaGuard(t *testing.T) {
	if os.Getenv("MDJOIN_BENCH_GUARD") == "" {
		t.Skip("set MDJOIN_BENCH_GUARD=1 (or run `make bench`) to run the incremental maintenance guard")
	}

	detail := benchSales(20000, 12)
	delta := benchSales(200, 99).Rows // 1% of the backfill
	full, err := cube.DistinctBase(detail, "cust", "month")
	if err != nil {
		t.Fatal(err)
	}
	base := &table.Table{Schema: full.Schema, Rows: full.Rows}
	if base.Len() > 1000 {
		base.Rows = base.Rows[:1000]
	}
	phases := []core.Phase{{
		Aggs: []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")},
		Theta: expr.And(
			expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
			expr.Eq(expr.QC("R", "month"), expr.C("month"))),
	}}

	// Incremental side: one live materialization backfilled with the
	// detail, then each iteration folds the delta and assembles a
	// snapshot. The folds accumulate (the state after i iterations holds
	// i copies of the delta), which only makes the guard harder: per-fold
	// work depends on the delta and |B|, not on what came before.
	inc, err := core.NewIncremental(base, detail.Schema, phases, core.Options{}, core.IncrementalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(detail.Rows); err != nil {
		t.Fatal(err)
	}
	incremental := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := inc.Append(delta); err != nil {
				b.Fatal(err)
			}
			if _, err := inc.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Full side: the refresh a view without incremental maintenance pays —
	// re-evaluate over the accumulated relation (backfill + one delta).
	acc := &table.Table{
		Schema: detail.Schema,
		Rows:   append(detail.Rows[:detail.Len():detail.Len()], delta...),
	}
	reeval := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Eval(base, acc, phases, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	t.Logf("incremental append+snapshot: %v, full re-evaluation: %v (%.1fx)",
		incremental, reeval, float64(reeval.NsPerOp())/float64(incremental.NsPerOp()))
	if lim := reeval.NsPerOp() / 10; incremental.NsPerOp() > lim {
		t.Errorf("incremental maintenance lost its advantage: %d ns/op > %d ns/op (re-evaluation %d / 10)",
			incremental.NsPerOp(), lim, reeval.NsPerOp())
	}
}

// TestStatsOverheadGuard is the observability tripwire: the per-phase
// metrics instrumentation must cost (near) nothing. The hot paths
// accumulate counters in locals and flush behind a single nil check per
// batch, and never call time.Now when Options.Stats is nil — so even a
// Stats-ENABLED run of the E12 workload must land within 5% of the
// Stats==nil run. The guard times the default columnar path with Stats
// off twice (interleaved, so the spread of the two nil runs brackets
// machine noise) and requires the Stats-on run to stay within 5% of the
// slower of them. Same opt-in gate as TestE12BatchGuard.
func TestStatsOverheadGuard(t *testing.T) {
	if os.Getenv("MDJOIN_BENCH_GUARD") == "" {
		t.Skip("set MDJOIN_BENCH_GUARD=1 (or run `make bench`) to run the stats overhead guard")
	}

	detail := benchSales(20000, 12)
	full, err := cube.DistinctBase(detail, "cust", "month")
	if err != nil {
		t.Fatal(err)
	}
	base := &table.Table{Schema: full.Schema, Rows: full.Rows}
	if base.Len() > 1000 {
		base.Rows = base.Rows[:1000]
	}
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "sale"), "total")}
	theta := expr.And(
		expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
		expr.Eq(expr.QC("R", "month"), expr.C("month")))

	run := func(withStats bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := core.Options{}
				if withStats {
					opt.Stats = &core.Stats{}
				}
				if _, err := core.Eval(base, detail, []core.Phase{{Aggs: specs, Theta: theta}}, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	off1 := run(false)
	on := run(true)
	off2 := run(false)

	// The two Stats==nil runs bracket machine noise: their spread is the
	// measurement floor. The Stats-enabled run must land within 5% of the
	// slower nil run (i.e. within noise + 5%); a per-tuple time.Now or a
	// missed nil-check hoist costs far more than that on 20M pair tests.
	lo, hi := off1.NsPerOp(), off2.NsPerOp()
	if hi < lo {
		lo, hi = hi, lo
	}
	t.Logf("stats off: %v / %v, stats on: %v (%d vs %d allocs/op)",
		off1, off2, on, off1.AllocsPerOp(), on.AllocsPerOp())
	if hi > lo*2 {
		t.Skipf("environment too noisy for an overhead judgement: nil runs %d vs %d ns/op", lo, hi)
	}
	if lim := hi * 105 / 100; on.NsPerOp() > lim {
		t.Errorf("Stats-enabled run regressed: %d ns/op > %d ns/op (nil baseline %d +5%%)",
			on.NsPerOp(), lim, hi)
	}
	// Enabling Stats must add only a fixed number of allocations (the
	// Phases slice and timing bookkeeping), never per-tuple ones.
	const statsHeadroom = 32
	if lim := off1.AllocsPerOp() + statsHeadroom; on.AllocsPerOp() > lim {
		t.Errorf("Stats-enabled run allocates per tuple: %d > %d allocs/op", on.AllocsPerOp(), lim)
	}
}
