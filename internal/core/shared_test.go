package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mdjoin/internal/agg"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// Tests for the three-stage API's merge and scatter stages (EvalBundles),
// the cross-query coordinator (SharedExecutor), and the merged scan's
// per-caller fault domains. The whole file reruns under -race via
// `make race-shared` (part of `make check`): the merged driver's workers,
// the eviction latches, and the coordinator's window bookkeeping are
// exactly the code a cached race pass must not mask.

// genSharedDetail builds a random detail relation with occasional NULL
// join keys: NULLs must flow through the merged scan with the same
// never-matches semantics as a solo run.
func genSharedDetail(rng *rand.Rand, n int) *table.Table {
	r := table.New(table.SchemaOf("g1", "g2", "w", "f"))
	for i := 0; i < n; i++ {
		row := table.Row{
			table.Int(int64(rng.Intn(7))),
			table.Int(int64(rng.Intn(5))),
			table.Int(int64(rng.Intn(100))),
			table.Int(int64(rng.Intn(3))),
		}
		if rng.Intn(12) == 0 {
			row[rng.Intn(2)] = table.Null()
		}
		r.Append(row)
	}
	return r
}

// genSharedBase builds a random base: a flat group-by style base with
// occasional NULL keys, or (cube=true) a cube subset containing ALL cells
// so cube-equality θs exercise their super-aggregate semantics merged.
func genSharedBase(rng *rand.Rand, cube bool) *table.Table {
	b := table.New(table.SchemaOf("g1", "g2"))
	seen := map[[2]string]bool{}
	want := 3 + rng.Intn(8)
	for tries := 0; tries < 64 && b.Len() < want; tries++ {
		var v1, v2 table.Value
		switch {
		case cube && rng.Intn(3) == 0:
			v1 = table.All()
		case !cube && rng.Intn(10) == 0:
			v1 = table.Null()
		default:
			v1 = table.Int(int64(rng.Intn(6)))
		}
		switch {
		case cube && rng.Intn(3) == 0:
			v2 = table.All()
		case !cube && rng.Intn(10) == 0:
			v2 = table.Null()
		default:
			v2 = table.Int(int64(rng.Intn(4)))
		}
		k := [2]string{v1.String(), v2.String()}
		if seen[k] {
			continue
		}
		seen[k] = true
		b.Append(table.Row{v1, v2})
	}
	return b
}

// sharedQuery is one randomized query in a differential trial: its base,
// phases, and executor options (the Stats pointer is filled per run).
type sharedQuery struct {
	base   *table.Table
	phases []Phase
	opt    Options
}

// genSharedQuery draws a random query shape: equi / equi+residual /
// cube-equality θ, a random aggregate list, and one of the executor
// option sets the merged driver must model per bundle (tiers, index
// on/off, its own DetailParallelism ask).
func genSharedQuery(rng *rand.Rand) sharedQuery {
	var theta expr.Expr
	cube := false
	switch rng.Intn(4) {
	case 0:
		theta = expr.And(
			expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
			expr.Eq(expr.QC("R", "g2"), expr.C("g2")))
	case 1:
		theta = expr.And(
			expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
			expr.Le(expr.QC("R", "f"), expr.I(int64(rng.Intn(3)))))
	case 2:
		theta = expr.And(
			expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
			expr.Eq(expr.QC("R", "g2"), expr.C("g2")),
			expr.Gt(expr.QC("R", "w"), expr.Mul(expr.C("g1"), expr.I(10))))
	default:
		cube = true
		theta = expr.And(
			expr.CubeEq(expr.QC("R", "g1"), expr.C("g1")),
			expr.CubeEq(expr.QC("R", "g2"), expr.C("g2")))
	}
	specs := []agg.Spec{agg.NewSpec("count", nil, "n")}
	if rng.Intn(2) == 0 {
		specs = append(specs, agg.NewSpec("sum", expr.QC("R", "w"), "total"))
	}
	if rng.Intn(2) == 0 {
		specs = append(specs, agg.NewSpec("min", expr.QC("R", "w"), "lo"))
	}
	var opt Options
	switch rng.Intn(4) {
	case 0: // columnar default
	case 1:
		opt.DisableBatch = true // scalar interpreter
	case 2:
		opt.DisableIndex = true // nested-loop access path
	case 3:
		opt.DetailParallelism = 2 + rng.Intn(3)
	}
	return sharedQuery{
		base:   genSharedBase(rng, cube),
		phases: []Phase{{Aggs: specs, Theta: theta}},
		opt:    opt,
	}
}

// TestEvalBundlesDifferentialRandomized is the acceptance differential:
// N random queries over one shared detail relation — mixed θ shapes,
// cube and non-cube bases, NULL join keys, mixed executor tiers and
// parallelism asks — run once solo and once merged into a single scan.
// Every query's merged result must be byte-identical to its solo result
// and its Stats must render the same Semantic() projection (one logical
// detail scan per caller, identical tuple/pair/probe accounting).
func TestEvalBundlesDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(170))
	for trial := 0; trial < 20; trial++ {
		r := genSharedDetail(rng, 200+rng.Intn(1800)) // spans the batch boundary
		nq := 2 + rng.Intn(4)
		queries := make([]sharedQuery, nq)
		for i := range queries {
			queries[i] = genSharedQuery(rng)
		}

		// One bundle per query submits no Stats at all: the merged driver's
		// zero-overhead contract is per bundle, not per group.
		noStats := rng.Intn(nq)

		solo := make([]*table.Table, nq)
		soloStats := make([]*Stats, nq)
		for i, q := range queries {
			opt := q.opt
			if i != noStats {
				soloStats[i] = &Stats{}
				opt.Stats = soloStats[i]
			}
			out, err := Eval(q.base, r, q.phases, opt)
			if err != nil {
				t.Fatalf("trial %d query %d solo: %v", trial, i, err)
			}
			solo[i] = out
		}

		bundles := make([]*Bundle, nq)
		mergedStats := make([]*Stats, nq)
		for i, q := range queries {
			opt := q.opt
			if i != noStats {
				mergedStats[i] = &Stats{}
				opt.Stats = mergedStats[i]
			}
			bu, err := Compile(q.base, r, q.phases, opt)
			if err != nil {
				t.Fatalf("trial %d query %d compile: %v", trial, i, err)
			}
			if !bu.Mergeable() {
				t.Fatalf("trial %d query %d: bundle unexpectedly unmergeable", trial, i)
			}
			bundles[i] = bu
		}
		results := EvalBundles(bundles)

		for i := range queries {
			if results[i].Err != nil {
				t.Fatalf("trial %d query %d merged: %v", trial, i, results[i].Err)
			}
			if d := solo[i].Diff(results[i].Table); d != "" {
				t.Fatalf("trial %d query %d: merged result differs from solo: %s", trial, i, d)
			}
			if i == noStats {
				continue
			}
			if got, want := mergedStats[i].Semantic(), soloStats[i].Semantic(); got != want {
				t.Fatalf("trial %d query %d: semantic stats diverge\nmerged: %s\nsolo:   %s",
					trial, i, got, want)
			}
			if mergedStats[i].DetailScans != 1 {
				t.Fatalf("trial %d query %d: caller observed %d detail scans, want 1 (semantic contract)",
					trial, i, mergedStats[i].DetailScans)
			}
		}
	}
}

// TestEvalBundlesRejectsUnmergeable: bundles over different detail tables,
// or bundles whose strategy the merged driver does not model, fail the
// whole call with one explanatory error per submitter (never a partial
// merge), and an empty group is a no-op.
func TestEvalBundlesRejectsUnmergeable(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	r1 := genSharedDetail(rng, 100)
	r2 := genSharedDetail(rng, 100)
	q := genSharedQuery(rng)
	q.opt = Options{}

	mk := func(r *table.Table, opt Options) *Bundle {
		bu, err := Compile(q.base, r, q.phases, opt)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return bu
	}

	for name, bundles := range map[string][]*Bundle{
		"mixed-details": {mk(r1, Options{}), mk(r2, Options{})},
		"base-parallel": {mk(r1, Options{}), mk(r1, Options{Parallelism: 2})},
	} {
		results := EvalBundles(bundles)
		for i, res := range results {
			if res.Err == nil {
				t.Errorf("%s: bundle %d got no error from an unmergeable group", name, i)
			}
		}
	}

	if got := EvalBundles(nil); len(got) != 0 {
		t.Errorf("empty group returned %d results", len(got))
	}
}

// panicBundle compiles a bundle that panics mid-scan: its base holds a
// truncated row and its θ is a non-equi (nested-loop) predicate reading
// the missing base column, so the first batch fed to this bundle's phases
// indexes past the row's end — the corrupt-input shape the per-bundle
// isolation exists for.
func panicBundle(t *testing.T, r *table.Table, opt Options) *Bundle {
	t.Helper()
	bad := table.New(table.SchemaOf("g1", "g2"))
	bad.Append(table.Row{table.Int(1), table.Int(1)})
	bad.Rows = append(bad.Rows, table.Row{}) // truncated: no g2 to read
	phases := []Phase{{
		Aggs:  []agg.Spec{agg.NewSpec("count", nil, "n")},
		Theta: expr.Gt(expr.QC("R", "w"), expr.C("g2")),
	}}
	bu, err := Compile(bad, r, phases, opt)
	if err != nil {
		t.Fatalf("panic bundle compile: %v", err)
	}
	if !bu.Mergeable() {
		t.Fatal("panic bundle must be mergeable for the torture run")
	}
	return bu
}

// TestMergedScanTortureCancelAndPanic is the fault-domain torture: five
// bundles share one scan while one caller's ctx is cancelled and another
// bundle panics on corrupt base data. The cancelled caller gets its
// ctx.Err(), the corrupt one gets *PanicError, and the three healthy
// bundles — spanning the scalar, row-batch, and parallel columnar tiers —
// complete byte-identical to their solo runs. Runs under -race via
// `make race-shared`.
func TestMergedScanTortureCancelAndPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	r := genSharedDetail(rng, 20000) // several morsels for the parallel ask

	healthy := []sharedQuery{
		{base: genSharedBase(rng, false), phases: []Phase{{
			Aggs: []agg.Spec{agg.NewSpec("count", nil, "n"), agg.NewSpec("sum", expr.QC("R", "w"), "total")},
			Theta: expr.And(
				expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
				expr.Eq(expr.QC("R", "g2"), expr.C("g2"))),
		}}, opt: Options{}},
		{base: genSharedBase(rng, false), phases: []Phase{{
			Aggs:  []agg.Spec{agg.NewSpec("min", expr.QC("R", "w"), "lo")},
			Theta: expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
		}}, opt: Options{DisableBatch: true}},
		{base: genSharedBase(rng, false), phases: []Phase{{
			Aggs:  []agg.Spec{agg.NewSpec("avg", expr.QC("R", "w"), "mean")},
			Theta: expr.Eq(expr.QC("R", "g2"), expr.C("g2")),
		}}, opt: Options{DetailParallelism: 4}},
	}
	solo := make([]*table.Table, len(healthy))
	for i, q := range healthy {
		out, err := Eval(q.base, r, q.phases, q.opt)
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		solo[i] = out
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelledOpt := Options{Ctx: ctx}
	cancelledStats := &Stats{}
	cancelledOpt.Stats = cancelledStats
	cancelledBu, err := Compile(healthy[0].base, r, healthy[0].phases, cancelledOpt)
	if err != nil {
		t.Fatalf("cancelled bundle compile: %v", err)
	}
	cancel() // dies between compile and scan: evicted at the first batch poll

	bundles := []*Bundle{
		mustCompile(t, healthy[0], r),
		cancelledBu,
		panicBundle(t, r, Options{}),
		mustCompile(t, healthy[1], r),
		mustCompile(t, healthy[2], r),
	}
	results := EvalBundles(bundles)

	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("cancelled bundle: got %v, want context.Canceled", results[1].Err)
	}
	var pe *PanicError
	if !errors.As(results[2].Err, &pe) {
		t.Errorf("corrupt bundle: got %v, want *PanicError", results[2].Err)
	}
	for hi, ri := range map[int]int{0: 0, 1: 3, 2: 4} {
		if results[ri].Err != nil {
			t.Fatalf("healthy bundle %d died alongside the faults: %v", ri, results[ri].Err)
		}
		if d := solo[hi].Diff(results[ri].Table); d != "" {
			t.Errorf("healthy bundle %d: result drifted under merged faults: %s", ri, d)
		}
	}
}

func mustCompile(t *testing.T, q sharedQuery, r *table.Table) *Bundle {
	t.Helper()
	bu, err := Compile(q.base, r, q.phases, q.opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return bu
}

// TestSharedExecutorMergesFullGroup: concurrent submitters over one
// relation close the group at MaxBatch (the window is a stall backstop,
// not the trigger), run one merged scan, and every caller gets its solo
// result and solo-semantic Stats back.
func TestSharedExecutorMergesFullGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	r := genSharedDetail(rng, 3000)
	nq := 4
	queries := make([]sharedQuery, nq)
	solo := make([]*table.Table, nq)
	for i := range queries {
		queries[i] = genSharedQuery(rng)
		queries[i].opt = Options{}
		out, err := Eval(queries[i].base, r, queries[i].phases, queries[i].opt)
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		solo[i] = out
	}

	se := NewSharedExecutor(2*time.Second, nq) // window long enough to never fire
	got := make([]*table.Table, nq)
	errs := make([]error, nq)
	stats := make([]Stats, nq)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := queries[i].opt
			opt.Stats = &stats[i]
			got[i], errs[i] = se.Eval(queries[i].base, r, queries[i].phases, opt)
		}(i)
	}
	wg.Wait()

	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if d := solo[i].Diff(got[i]); d != "" {
			t.Errorf("query %d: shared result differs from solo: %s", i, d)
		}
		if stats[i].DetailScans != 1 {
			t.Errorf("query %d observed %d detail scans, want 1", i, stats[i].DetailScans)
		}
	}
	st := se.Snapshot()
	if st.Submitted != int64(nq) || st.GroupsRun != 1 ||
		st.MergedBundles != int64(nq) || st.ScansSaved != int64(nq-1) {
		t.Errorf("share stats %+v: want submitted=%d groups_run=1 merged=%d scans_saved=%d",
			st, nq, nq, nq-1)
	}
}

// TestSharedExecutorWindowTimerRunsPartialGroup: a submitter with no
// companions waits out the window and runs as a group of one off the
// timer path — correctness cannot depend on MaxBatch ever being reached.
func TestSharedExecutorWindowTimerRunsPartialGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	r := genSharedDetail(rng, 500)
	q := genSharedQuery(rng)
	q.opt = Options{}
	want, err := Eval(q.base, r, q.phases, q.opt)
	if err != nil {
		t.Fatal(err)
	}

	se := NewSharedExecutor(5*time.Millisecond, 64)
	got, err := se.Eval(q.base, r, q.phases, q.opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.Diff(got); d != "" {
		t.Errorf("timer-path result differs: %s", d)
	}
	st := se.Snapshot()
	if st.GroupsRun != 1 || st.ScansSaved != 0 || st.Submitted != 1 {
		t.Errorf("share stats %+v: want one group of one, nothing saved", st)
	}
}

// TestSharedExecutorSoloFallbacks: everything that cannot or should not
// merge — a nil coordinator, a disabled window, an unmergeable strategy —
// degrades to a plain solo run with identical results and honest
// accounting.
func TestSharedExecutorSoloFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(175))
	r := genSharedDetail(rng, 500)
	q := genSharedQuery(rng)
	q.opt = Options{}
	want, err := Eval(q.base, r, q.phases, q.opt)
	if err != nil {
		t.Fatal(err)
	}

	var nilSE *SharedExecutor
	got, err := nilSE.Eval(q.base, r, q.phases, q.opt)
	if err != nil {
		t.Fatalf("nil coordinator: %v", err)
	}
	if d := want.Diff(got); d != "" {
		t.Errorf("nil coordinator result differs: %s", d)
	}
	if st := nilSE.Snapshot(); st != (ShareStats{}) {
		t.Errorf("nil coordinator snapshot %+v, want zero", st)
	}
	if w := nilSE.Window(); w != 0 {
		t.Errorf("nil coordinator window %v, want 0", w)
	}

	off := NewSharedExecutor(0, 0) // the -share-off escape hatch
	got, err = off.Eval(q.base, r, q.phases, q.opt)
	if err != nil {
		t.Fatalf("disabled window: %v", err)
	}
	if d := want.Diff(got); d != "" {
		t.Errorf("disabled-window result differs: %s", d)
	}
	if st := off.Snapshot(); st.SoloRuns != 1 || st.Submitted != 0 || st.GroupsRun != 0 {
		t.Errorf("disabled-window stats %+v: want one solo run, no window traffic", st)
	}

	// Base-parallel bundles have per-fragment plans and cannot merge: the
	// coordinator must route them solo even with the window on.
	on := NewSharedExecutor(10*time.Millisecond, 0)
	parOpt := q.opt
	parOpt.Parallelism = 2
	got, err = on.Eval(q.base, r, q.phases, parOpt)
	if err != nil {
		t.Fatalf("unmergeable strategy: %v", err)
	}
	if d := want.Diff(got); d != "" {
		t.Errorf("unmergeable-strategy result differs: %s", d)
	}
	if st := on.Snapshot(); st.SoloRuns != 1 || st.Submitted != 0 {
		t.Errorf("unmergeable-strategy stats %+v: want a solo fallback, not a window entry", st)
	}
}

// TestSharedExecutorPanicDelivery: a group of ONE whose bundle panics
// exercises the delivery guarantee — single-bundle groups keep the solo
// contract (the panic unwinds EvalBundles), and runGroup must still
// unblock the submitter with a *PanicError instead of leaving it waiting
// on a dead group.
func TestSharedExecutorPanicDelivery(t *testing.T) {
	rng := rand.New(rand.NewSource(176))
	r := genSharedDetail(rng, 300)
	se := NewSharedExecutor(time.Hour, 1) // full at one: runs inline, timer never fires

	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = se.Run(panicBundle(t, r, Options{}))
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("submitter still blocked after its group panicked")
	}
	var pe *PanicError
	if !errors.As(runErr, &pe) {
		t.Fatalf("got %v, want *PanicError delivered to the submitter", runErr)
	}
}

// TestSharedExecutorCancelledCallerEvicted: a caller whose ctx dies after
// compile but before its group runs is evicted from the merged scan with
// its own ctx.Err(); cancellation composes per caller through the
// coordinator exactly as it does through EvalBundles directly.
func TestSharedExecutorCancelledCallerEvicted(t *testing.T) {
	rng := rand.New(rand.NewSource(177))
	r := genSharedDetail(rng, 2000)
	q := genSharedQuery(rng)
	q.opt = Options{}

	se := NewSharedExecutor(5*time.Millisecond, 64)
	ctx, cancel := context.WithCancel(context.Background())
	opt := q.opt
	opt.Ctx = ctx
	bu, err := Compile(q.base, r, q.phases, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cancel()
	if _, err := se.Run(bu); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
