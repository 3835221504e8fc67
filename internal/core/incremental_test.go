package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"mdjoin/internal/agg"
	"mdjoin/internal/engine"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// incTiers is the executor-tier matrix every incremental differential
// runs across: the scalar interpreter and the columnar chunk executor.
func incTiers() map[string]Options {
	return map[string]Options{
		"scalar":   {DisableBatch: true},
		"columnar": {},
	}
}

// incTheta builds a randomized θ like the batch equivalence matrix: cube
// equality over ALL-marked bases every third trial, otherwise one or two
// equi conjuncts, an optional residual, and an optional R-only pushdown.
func incTheta(rng *rand.Rand, cube bool) expr.Expr {
	var conj []expr.Expr
	if cube {
		conj = append(conj,
			expr.CubeEq(expr.QC("R", "g1"), expr.C("g1")),
			expr.CubeEq(expr.QC("R", "g2"), expr.C("g2")))
	} else {
		conj = append(conj, expr.Eq(expr.QC("R", "g1"), expr.C("g1")))
		if rng.Intn(2) == 0 {
			conj = append(conj, expr.Eq(expr.QC("R", "g2"), expr.C("g2")))
		}
		if rng.Intn(2) == 0 {
			conj = append(conj, expr.Gt(expr.QC("R", "w"), expr.Mul(expr.C("g1"), expr.I(10))))
		}
	}
	if rng.Intn(2) == 0 {
		conj = append(conj, expr.Lt(expr.QC("R", "f"), expr.I(2))) // R-only: pushdown
	}
	return expr.And(conj...)
}

// appendSchedule splits rows into a random sequence of delta batches
// (some empty, some spanning multiple executor batches).
func appendSchedule(rng *rand.Rand, rows []table.Row) [][]table.Row {
	var out [][]table.Row
	for start := 0; start < len(rows); {
		n := rng.Intn(40)
		if n > len(rows)-start {
			n = len(rows) - start
		}
		out = append(out, rows[start:start+n])
		start += n
	}
	return out
}

// TestIncrementalMatchesBatch is the differential suite's core property:
// for randomized append schedules over randomized (B, R, θ) — mixed equi
// /residual/pushdown θs, cube equality with ALL-marked bases, NULL detail
// keys — Snapshot() after every delta is byte-identical to a batch Eval
// over the detail rows accumulated so far, on both executor tiers.
func TestIncrementalMatchesBatch(t *testing.T) {
	for tier, topt := range incTiers() {
		t.Run(tier, func(t *testing.T) {
			rng := rand.New(rand.NewSource(900))
			for trial := 0; trial < 16; trial++ {
				cube := trial%3 == 2
				b, r := genBatchRelations(rng, cube)
				phases := []Phase{{
					Aggs: []agg.Spec{
						agg.NewSpec("count", nil, "n"),
						agg.NewSpec("sum", expr.QC("R", "w"), "total"),
						agg.NewSpec("min", expr.QC("R", "w"), "lo"),
						agg.NewSpec("avg", expr.QC("R", "w"), "mean"),
						agg.NewSpec("median", expr.QC("R", "w"), "med"),
					},
					Theta: incTheta(rng, cube),
				}}
				if trial%4 == 1 {
					// Generalized MD-join: a second phase with its own θ
					// sharing the same appends.
					phases = append(phases, Phase{
						Aggs:  []agg.Spec{agg.NewSpec("max", expr.QC("R", "w"), "hi")},
						Theta: expr.Eq(expr.QC("R", "g2"), expr.C("g2")),
					})
				}
				inc, err := NewIncremental(b, r.Schema, phases, topt, IncrementalConfig{})
				if err != nil {
					t.Fatalf("trial %d: NewIncremental: %v", trial, err)
				}
				var acc []table.Row
				for si, delta := range appendSchedule(rng, r.Rows) {
					if err := inc.Append(delta); err != nil {
						t.Fatalf("trial %d step %d: Append: %v", trial, si, err)
					}
					acc = append(acc, delta...)
					got, err := inc.Snapshot()
					if err != nil {
						t.Fatalf("trial %d step %d: Snapshot: %v", trial, si, err)
					}
					accT := table.New(r.Schema)
					accT.Rows = acc
					want, err := Eval(b, accT, phases, topt)
					if err != nil {
						t.Fatalf("trial %d step %d: Eval: %v", trial, si, err)
					}
					if d := want.Diff(got); d != "" {
						t.Fatalf("trial %d step %d (%d rows in): snapshot diverges from batch eval: %s",
							trial, si, len(acc), d)
					}
				}
				if inc.Rows() != len(acc) || inc.Total() != int64(len(acc)) {
					t.Fatalf("trial %d: Rows/Total = %d/%d, want %d", trial, inc.Rows(), inc.Total(), len(acc))
				}
			}
		})
	}
}

// TestIncrementalWindowMatchesBatch checks windowed maintenance on both
// eviction strategies: direct subtraction (count/sum/avg — all
// invertible) and window-partitioned arenas (forced via
// DisableSubtraction, and naturally via min/median specs). After every
// Append/Advance, Snapshot must be byte-identical to a batch Eval over a
// shadow copy of the surviving window.
func TestIncrementalWindowMatchesBatch(t *testing.T) {
	subtractable := []agg.Spec{
		agg.NewSpec("count", nil, "n"),
		agg.NewSpec("sum", expr.QC("R", "w"), "total"),
		agg.NewSpec("avg", expr.QC("R", "w"), "mean"),
	}
	holistic := []agg.Spec{
		agg.NewSpec("count", nil, "n"),
		agg.NewSpec("min", expr.QC("R", "w"), "lo"),
		agg.NewSpec("median", expr.QC("R", "w"), "med"),
	}
	cases := map[string]struct {
		aggs []agg.Spec
		cfg  IncrementalConfig
	}{
		"subtract":         {subtractable, IncrementalConfig{WindowBuckets: 3}},
		"partition-forced": {subtractable, IncrementalConfig{WindowBuckets: 3, DisableSubtraction: true}},
		"partition":        {holistic, IncrementalConfig{WindowBuckets: 2}},
	}
	for tier, topt := range incTiers() {
		for cname, c := range cases {
			t.Run(tier+"/"+cname, func(t *testing.T) {
				rng := rand.New(rand.NewSource(901))
				for trial := 0; trial < 8; trial++ {
					cube := trial%3 == 2
					b, r := genBatchRelations(rng, cube)
					phases := []Phase{{Aggs: c.aggs, Theta: incTheta(rng, cube)}}
					inc, err := NewIncremental(b, r.Schema, phases, topt, c.cfg)
					if err != nil {
						t.Fatalf("NewIncremental: %v", err)
					}
					// Shadow window: sealed buckets plus the open one.
					var sealed [][]table.Row
					var cur []table.Row
					next := 0
					for step := 0; step < 24; step++ {
						if rng.Intn(3) == 0 {
							if err := inc.Advance(); err != nil {
								t.Fatalf("Advance: %v", err)
							}
							sealed = append(sealed, cur)
							cur = nil
							for len(sealed) > c.cfg.WindowBuckets-1 {
								sealed = sealed[1:]
							}
						} else {
							n := rng.Intn(30)
							if n > len(r.Rows)-next {
								n = len(r.Rows) - next
							}
							delta := r.Rows[next : next+n]
							next += n
							if err := inc.Append(delta); err != nil {
								t.Fatalf("Append: %v", err)
							}
							cur = append(cur, delta...)
						}
						var live []table.Row
						for _, bk := range sealed {
							live = append(live, bk...)
						}
						live = append(live, cur...)
						got, err := inc.Snapshot()
						if err != nil {
							t.Fatalf("Snapshot: %v", err)
						}
						liveT := table.New(r.Schema)
						liveT.Rows = live
						want, err := Eval(b, liveT, phases, topt)
						if err != nil {
							t.Fatalf("Eval: %v", err)
						}
						if d := want.Diff(got); d != "" {
							t.Fatalf("trial %d step %d: windowed snapshot diverges from batch over surviving window (%d live rows): %s",
								trial, step, len(live), d)
						}
						if inc.Rows() != len(live) {
							t.Fatalf("trial %d step %d: Rows() = %d, want %d", trial, step, inc.Rows(), len(live))
						}
					}
				}
			})
		}
	}
}

// TestIncrementalRollup checks Theorem 4.5 maintenance: a roll-up
// attached to the finer materialization (before and after backfill) must
// stay byte-identical to a direct coarse MD-join over the accumulated
// detail — coarse states fed only by finer deltas, never by R.
func TestIncrementalRollup(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	// Finer base: the full g1 × g2 cross product, so it covers every
	// combination the detail generator can emit (the Theorem 4.5 lattice
	// premise).
	b := table.New(table.SchemaOf("g1", "g2"))
	for g1 := 0; g1 < 6; g1++ {
		for g2 := 0; g2 < 4; g2++ {
			b.Append(table.Row{table.Int(int64(g1)), table.Int(int64(g2))})
		}
	}
	rSchema := table.SchemaOf("g1", "g2", "w", "f")
	genRow := func() table.Row {
		return table.Row{
			table.Int(int64(rng.Intn(6))),
			table.Int(int64(rng.Intn(4))),
			table.Int(int64(rng.Intn(100))),
			table.Int(int64(rng.Intn(3))),
		}
	}
	finePhases := []Phase{{
		Aggs: []agg.Spec{
			agg.NewSpec("count", nil, "n"),
			agg.NewSpec("sum", expr.QC("R", "w"), "total"),
			agg.NewSpec("min", expr.QC("R", "w"), "lo"),
			agg.NewSpec("max", expr.QC("R", "w"), "hi"),
		},
		Theta: expr.And(
			expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
			expr.Eq(expr.QC("R", "g2"), expr.C("g2"))),
	}}
	coarsePhases := []Phase{{
		Aggs:  finePhases[0].Aggs,
		Theta: expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
	}}
	coarseBase, err := engine.DistinctOn(b, "g1")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(b, rSchema, finePhases, Options{}, IncrementalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	early, err := inc.Rollup("g1") // attached before any data: pure delta flow
	if err != nil {
		t.Fatal(err)
	}
	var acc []table.Row
	appendRows := func(n int) {
		t.Helper()
		delta := make([]table.Row, n)
		for i := range delta {
			delta[i] = genRow()
		}
		if err := inc.Append(delta); err != nil {
			t.Fatal(err)
		}
		acc = append(acc, delta...)
	}
	appendRows(500)
	late, err := inc.Rollup("g1") // attached mid-stream: seeded from cumulative state
	if err != nil {
		t.Fatal(err)
	}
	appendRows(700)
	accT := table.New(rSchema)
	accT.Rows = acc
	want, err := Eval(coarseBase, accT, coarsePhases, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, ru := range map[string]*Rollup{"early": early, "late": late} {
		got, err := ru.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := want.Diff(got); d != "" {
			t.Fatalf("%s roll-up diverges from direct coarse MD-join: %s", name, d)
		}
	}
	// The finer materialization itself must be unperturbed by the delta
	// swapping the roll-up flow introduces.
	fine, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantFine, err := Eval(b, accT, finePhases, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := wantFine.Diff(fine); d != "" {
		t.Fatalf("finer materialization diverges with roll-ups attached: %s", d)
	}
}

// TestIncrementalRejections pins the constructor and mode guards.
func TestIncrementalRejections(t *testing.T) {
	b, r := genBatchRelations(rand.New(rand.NewSource(1)), false)
	phases := []Phase{{
		Aggs:  []agg.Spec{agg.NewSpec("count", nil, "n")},
		Theta: expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
	}}
	if _, err := NewIncremental(b, r.Schema, phases, Options{Parallelism: 4}, IncrementalConfig{}); err == nil {
		t.Error("parallel options must be rejected")
	}
	if _, err := NewIncremental(b, r.Schema, phases, Options{MaxBaseRows: 2}, IncrementalConfig{}); err == nil {
		t.Error("MaxBaseRows must be rejected")
	}
	if _, err := NewIncremental(b, r.Schema, phases, Options{}, IncrementalConfig{WindowBuckets: -1}); err == nil {
		t.Error("negative WindowBuckets must be rejected")
	}
	inc, err := NewIncremental(b, r.Schema, phases, Options{}, IncrementalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Advance(); err == nil {
		t.Error("Advance without a window must be rejected")
	}
	if err := inc.Append([]table.Row{{table.Int(1)}}); err == nil {
		t.Error("width-mismatched rows must be rejected")
	}
	if err := inc.Append(nil); err != nil {
		t.Errorf("empty append should be a no-op, got %v", err)
	}
	windowed, err := NewIncremental(b, r.Schema, phases, Options{}, IncrementalConfig{WindowBuckets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := windowed.Rollup("g1"); err == nil {
		t.Error("roll-up on a windowed incremental must be rejected")
	}
	avgPhases := []Phase{{
		Aggs:  []agg.Spec{agg.NewSpec("avg", expr.QC("R", "w"), "mean")},
		Theta: expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
	}}
	avgInc, err := NewIncremental(b, r.Schema, avgPhases, Options{}, IncrementalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := avgInc.Rollup("g1"); err == nil {
		t.Error("roll-up over a non-distributive aggregate must be rejected")
	}
}

// countdownCtx is a context that reports cancellation after its Done
// channel has been consulted n times — a deterministic way to land a
// cancellation in the middle of a multi-batch append.
type countdownCtx struct {
	context.Context
	mu     sync.Mutex
	n      int
	closed chan struct{}
}

func newCountdownCtx(n int) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), n: n, closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.n < 0 {
		return c.closed
	}
	return make(chan struct{})
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestIncrementalPoisonsOnMidAppendCancel: a cancellation that interrupts
// a partially-applied delta must poison the materialization — every later
// Append, Advance, and Snapshot reports the interruption instead of
// serving a state matching no prefix of the stream.
func TestIncrementalPoisonsOnMidAppendCancel(t *testing.T) {
	b, r := genBatchRelations(rand.New(rand.NewSource(2)), false)
	phases := []Phase{{
		Aggs:  []agg.Spec{agg.NewSpec("count", nil, "n")},
		Theta: expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
	}}
	ctx := newCountdownCtx(2) // survives Append's gate + first batch poll, dies mid-delta
	inc, err := NewIncremental(b, r.Schema, phases, Options{Ctx: ctx}, IncrementalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]table.Row, 4*batchSize)
	for i := range big {
		big[i] = r.Rows[i%len(r.Rows)]
	}
	if err := inc.Append(big); err == nil {
		t.Fatal("mid-append cancellation must surface")
	}
	if err := inc.Append(r.Rows[:1]); err == nil {
		t.Error("poisoned incremental must reject further appends")
	}
	if _, err := inc.Snapshot(); err == nil {
		t.Error("poisoned incremental must not serve snapshots")
	}
}

// TestIncrementalTorture — the race suite entry point — lives in
// incremental_torture_test.go (package core_test): it drives the fault
// injector, which itself imports core, so it cannot sit in this package.
