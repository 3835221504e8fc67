package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mdjoin/internal/agg"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// This file extends the equivalence matrix of batch_equivalence_test.go —
// scalar (DisableBatch) vs columnar (default) — to what is specific to the
// columnar representation: dictionary-encoded string keys with NULL (and
// cube-ALL base cells), mixed-kind detail columns that demote chunk
// columns to the boxed fallback, chunk-boundary cardinalities, and
// prebuilt Builder chunks vs on-the-fly transposition. Results must be
// row-identical.

// columnarVsScalar evaluates the phase under both executors derived from
// opt and fails on a divergence. It returns the columnar result so
// callers can chain further comparisons.
func columnarVsScalar(t *testing.T, label string, b, r *table.Table, specs []agg.Spec, theta expr.Expr, opt Options) *table.Table {
	t.Helper()
	scalarOpt := opt
	scalarOpt.DisableBatch = true

	scalar := mdJoin(t, b, r, specs, theta, scalarOpt)
	columnar := mdJoin(t, b, r, specs, theta, opt)
	if d := scalar.Diff(columnar); d != "" {
		t.Fatalf("%s: columnar vs scalar: %s", label, d)
	}
	return columnar
}

// genStringRelations builds a (base, detail) pair keyed by a
// dictionary-encoded string dimension. Detail g1 is NULL with probability
// 1/8; when cube is set, base cells carry ALL with probability 1/3.
func genStringRelations(rng *rand.Rand, cube bool) (*table.Table, *table.Table) {
	states := []string{"ak", "ca", "ny", "tx", "wa", "vt", "or"}
	b := table.New(table.SchemaOf("g1", "g2"))
	seen := map[string]bool{}
	for b.Len() < 2+rng.Intn(9) {
		var v1, v2 table.Value
		v1 = table.Str(states[rng.Intn(len(states))])
		v2 = table.Int(int64(rng.Intn(4)))
		if cube {
			if rng.Intn(3) == 0 {
				v1 = table.All()
			}
			if rng.Intn(3) == 0 {
				v2 = table.All()
			}
		}
		k := fmt.Sprintf("%d:%v/%d:%v", v1.Kind(), v1, v2.Kind(), v2)
		if seen[k] {
			continue
		}
		seen[k] = true
		b.Append(table.Row{v1, v2})
	}
	r := table.New(table.SchemaOf("g1", "g2", "w", "f"))
	n := 10 + rng.Intn(120)
	for i := 0; i < n; i++ {
		var g1 table.Value = table.Str(states[rng.Intn(len(states))])
		if rng.Intn(8) == 0 {
			g1 = table.Null()
		}
		r.Append(table.Row{
			g1,
			table.Int(int64(rng.Intn(5))),
			table.Float(float64(rng.Intn(100)) / 4),
			table.Int(int64(rng.Intn(3))),
		})
	}
	return b, r
}

// genMixedKindRelations builds a detail relation whose key and argument
// columns mix ints, floats, and strings, so the chunk columns demote to
// the boxed representation and the executor's generic fallback carries the
// phase.
func genMixedKindRelations(rng *rand.Rand) (*table.Table, *table.Table) {
	b := table.New(table.SchemaOf("g1"))
	seen := map[string]bool{}
	for b.Len() < 3+rng.Intn(5) {
		v := mixedValue(rng)
		k := fmt.Sprintf("%d:%v", v.Kind(), v)
		if seen[k] {
			continue
		}
		seen[k] = true
		b.Append(table.Row{v})
	}
	r := table.New(table.SchemaOf("g1", "w", "f"))
	n := 10 + rng.Intn(100)
	for i := 0; i < n; i++ {
		r.Append(table.Row{
			mixedValue(rng),
			mixedValue(rng), // aggregate argument: mixed kinds too
			table.Int(int64(rng.Intn(3))),
		})
	}
	return b, r
}

func mixedValue(rng *rand.Rand) table.Value {
	switch rng.Intn(5) {
	case 0:
		return table.Str(fmt.Sprintf("s%d", rng.Intn(3)))
	case 1:
		return table.Float(float64(rng.Intn(4)) + 0.5)
	case 2:
		return table.Null()
	default:
		return table.Int(int64(rng.Intn(4)))
	}
}

// TestColumnarMatrixAgainstScalar runs the full options matrix over int,
// string-dictionary, and mixed-kind relations, diffing both executors per
// combination.
func TestColumnarMatrixAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8000))
	for trial := 0; trial < 18; trial++ {
		cube := trial%3 == 2
		var b, r *table.Table
		var keyCol string
		switch trial % 2 {
		case 0:
			b, r = genBatchRelations(rng, cube)
			keyCol = "g1"
		default:
			b, r = genStringRelations(rng, cube)
			keyCol = "g1"
		}

		var conj []expr.Expr
		if cube {
			conj = append(conj,
				expr.CubeEq(expr.QC("R", keyCol), expr.C(keyCol)),
				expr.CubeEq(expr.QC("R", "g2"), expr.C("g2")))
		} else {
			conj = append(conj, expr.Eq(expr.QC("R", keyCol), expr.C(keyCol)))
			if rng.Intn(2) == 0 {
				// Residual conjunct referencing both relations.
				conj = append(conj, expr.Ge(expr.QC("R", "g2"), expr.C("g2")))
			}
		}
		if rng.Intn(2) == 0 {
			// R-only conjunct: the pushdown target, FilterChunk's input.
			conj = append(conj, expr.Le(expr.QC("R", "f"), expr.I(int64(rng.Intn(3)))))
		}
		theta := expr.And(conj...)
		specs := stdSpecs()

		ref := refMDJoin(t, b, r, specs, theta, Options{})
		for name, opt := range batchMatrix() {
			label := fmt.Sprintf("trial %d, %s, θ=%s", trial, name, theta)
			got := columnarVsScalar(t, label, b, r, specs, theta, opt)
			if d := ref.Diff(got); d != "" {
				t.Fatalf("%s: columnar vs reference: %s", label, d)
			}
		}
	}
}

// TestColumnarMixedKindColumns pins the boxed-fallback path: keys and
// aggregate arguments over columns that cannot hold a single payload kind.
func TestColumnarMixedKindColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(8100))
	specs := []agg.Spec{
		agg.NewSpec("count", nil, "n"),
		agg.NewSpec("sum", expr.QC("R", "w"), "total"),
		agg.NewSpec("max", expr.QC("R", "w"), "top"),
	}
	for trial := 0; trial < 12; trial++ {
		b, r := genMixedKindRelations(rng)
		theta := expr.Eq(expr.QC("R", "g1"), expr.C("g1"))
		columnarVsScalar(t, fmt.Sprintf("mixed trial %d indexed", trial), b, r, specs, theta, Options{})
		columnarVsScalar(t, fmt.Sprintf("mixed trial %d nested", trial), b, r, specs, theta, Options{DisableIndex: true})
	}
}

// TestColumnarChunkBoundaries pins the chunk/batch boundary arithmetic at
// |R| ∈ {1, ChunkSize-1, ChunkSize, ChunkSize+1}, each built two ways: via
// plain Append (the scan transposes into the scratch chunk) and via
// table.Builder (the scan consumes the prebuilt columnar mirror). Both
// must match the scalar interpreter, and each other.
func TestColumnarChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(8200))
	theta := expr.And(
		expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
		expr.Le(expr.QC("R", "f"), expr.I(1)))
	specs := stdSpecs()
	b := table.MustFromRows(table.SchemaOf("g1"), []table.Row{
		{table.Int(0)}, {table.Int(1)}, {table.Int(2)},
	})
	for _, n := range []int{1, table.ChunkSize - 1, table.ChunkSize, table.ChunkSize + 1} {
		appended := table.New(table.SchemaOf("g1", "w", "f"))
		built := table.NewBuilder(table.SchemaOf("g1", "w", "f"))
		for i := 0; i < n; i++ {
			row := table.Row{
				table.Int(int64(rng.Intn(4))),
				table.Int(int64(rng.Intn(50))),
				table.Int(int64(rng.Intn(3))),
			}
			appended.Append(row)
			built.Append(row)
		}
		builtTab := built.Table()
		if builtTab.CachedChunks(batchSize) == nil {
			t.Fatalf("|R|=%d: Builder table must carry cached chunks at the executor batch size", n)
		}

		fromAppend := columnarVsScalar(t, fmt.Sprintf("|R|=%d appended", n), b, appended, specs, theta, Options{})
		fromBuilder := columnarVsScalar(t, fmt.Sprintf("|R|=%d built", n), b, builtTab, specs, theta, Options{})
		if d := fromAppend.Diff(fromBuilder); d != "" {
			t.Fatalf("|R|=%d: transposed vs prebuilt chunks: %s", n, d)
		}
	}
}

// TestColumnarBulkFoldPath pins the no-index no-residual bulk fold (every
// selected tuple feeds every live base row via FoldColumn) against the
// scalar interpreter, including the pushdown-filtered variant.
func TestColumnarBulkFoldPath(t *testing.T) {
	rng := rand.New(rand.NewSource(8300))
	b := table.MustFromRows(table.SchemaOf("tag"), []table.Row{
		{table.Str("lo")}, {table.Str("hi")},
	})
	r := table.New(table.SchemaOf("w", "f"))
	n := 2*table.ChunkSize + 33
	for i := 0; i < n; i++ {
		var w table.Value = table.Float(float64(rng.Intn(100)) / 8)
		if rng.Intn(10) == 0 {
			w = table.Null()
		}
		r.Append(table.Row{w, table.Int(int64(rng.Intn(4)))})
	}
	specs := []agg.Spec{
		agg.NewSpec("count", nil, "n"),
		agg.NewSpec("sum", expr.QC("R", "w"), "total"),
		agg.NewSpec("avg", expr.QC("R", "w"), "mean"),
		agg.NewSpec("min", expr.QC("R", "w"), "low"),
	}
	// No θ at all: every tuple matches every base row.
	always := expr.V(table.Bool(true))
	columnarVsScalar(t, "bulk unfiltered", b, r, nil, always, Options{})
	columnarVsScalar(t, "bulk aggs unfiltered", b, r, specs, always, Options{})
	// R-only filter: the bulk fold runs over the compacted selection.
	columnarVsScalar(t, "bulk pushdown", b, r, specs, expr.Le(expr.QC("R", "f"), expr.I(1)), Options{})
	// B-only conjunct: dead base rows must stay out of the fold.
	theta := expr.And(expr.Le(expr.QC("R", "f"), expr.I(2)), expr.Eq(expr.C("tag"), expr.S("hi")))
	columnarVsScalar(t, "bulk balive", b, r, specs, theta, Options{})
}

// TestColumnarStatsMatch: both executors must report identical
// executor-independent Stats (the Semantic projection — tuple, pair, probe,
// and pushdown counters) on indexed, bulk-fold, and residual-bearing
// shapes, and each must report its own tier.
func TestColumnarStatsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8400))
	for trial, mk := range []func() (*table.Table, *table.Table, expr.Expr){
		func() (*table.Table, *table.Table, expr.Expr) {
			b, r := genBatchRelations(rng, false)
			return b, r, expr.And(
				expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
				expr.Le(expr.QC("R", "f"), expr.I(1)))
		},
		func() (*table.Table, *table.Table, expr.Expr) {
			b, r := genStringRelations(rng, true)
			return b, r, expr.And(
				expr.CubeEq(expr.QC("R", "g1"), expr.C("g1")),
				expr.CubeEq(expr.QC("R", "g2"), expr.C("g2")))
		},
		func() (*table.Table, *table.Table, expr.Expr) {
			b, r := genBatchRelations(rng, false)
			// No equi conjunct: bulk-fold / full-loop territory.
			return b, r, expr.Le(expr.QC("R", "f"), expr.I(1))
		},
		func() (*table.Table, *table.Table, expr.Expr) {
			b, r := genBatchRelations(rng, false)
			// Residual-only: per-pair checks on both executors.
			return b, r, expr.Ge(expr.QC("R", "w"), expr.Mul(expr.C("g1"), expr.I(10)))
		},
	} {
		b, r, theta := mk()
		specs := stdSpecs()
		var scalar, columnar Stats
		mdJoin(t, b, r, specs, theta, Options{Stats: &scalar, DisableBatch: true})
		mdJoin(t, b, r, specs, theta, Options{Stats: &columnar})
		if scalar.Semantic() != columnar.Semantic() {
			t.Fatalf("shape %d: stats diverge:\n scalar   %s\n columnar %s",
				trial, scalar.Semantic(), columnar.Semantic())
		}
		if scalar.Tier() != TierScalar || columnar.Tier() != TierColumnar {
			t.Fatalf("shape %d: tier misreported: scalar=%v columnar=%v",
				trial, scalar.Tier(), columnar.Tier())
		}
	}
}
