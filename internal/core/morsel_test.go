package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mdjoin/internal/agg"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// Tests for the morsel-driven detail scheduler (the merged driver's
// cursor queue) and the dict→dict probe translation it drives: the
// dynamic cursor queue must be row-identical and Semantic-identical to the
// single-scan evaluator across every degenerate shape the cursor
// arithmetic can meet.

// evalMorselVsRefs evaluates one phase under the morsel scheduler and the
// single scan, failing on any divergence in rows or in the
// executor-independent Stats projection.
func evalMorselVsRefs(t *testing.T, label string, b, r *table.Table, specs []agg.Spec, theta expr.Expr, p int) {
	t.Helper()
	var sM, s1 Stats
	morsel := mdJoin(t, b, r, specs, theta, Options{DetailParallelism: p, Stats: &sM})
	single := mdJoin(t, b, r, specs, theta, Options{Stats: &s1})
	if d := single.Diff(morsel); d != "" {
		t.Fatalf("%s: morsel p=%d vs single: %s", label, p, d)
	}
	if sM.Semantic() != s1.Semantic() {
		t.Fatalf("%s p=%d: stats diverge:\n morsel %s\n single %s",
			label, p, sM.Semantic(), s1.Semantic())
	}
}

// TestMorselDegenerateShapes pins the cursor arithmetic at the shapes
// where the queue collapses: empty R, one row, exactly one morsel, one
// morsel plus a row, p far beyond the morsel count, and p beyond r.Len().
func TestMorselDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9100))
	specs := stdSpecs()
	theta := expr.Eq(expr.QC("R", "g1"), expr.C("g1"))
	b := table.MustFromRows(table.SchemaOf("g1"), []table.Row{
		{table.Int(0)}, {table.Int(1)}, {table.Int(2)},
	})
	mkR := func(n int) *table.Table {
		r := table.New(table.SchemaOf("g1", "w", "f"))
		for i := 0; i < n; i++ {
			r.Append(table.Row{
				table.Int(int64(rng.Intn(4))),
				table.Int(int64(rng.Intn(50))),
				table.Int(int64(rng.Intn(3))),
			})
		}
		return r
	}
	for _, n := range []int{0, 1, batchSize - 1, morselRows, morselRows + 1, 3 * morselRows} {
		r := mkR(n)
		for _, p := range []int{2, 4, 9, n + 7} {
			evalMorselVsRefs(t, fmt.Sprintf("|R|=%d", n), b, r, specs, theta, p)
		}
	}
}

// TestMorselMatchesSingleScan runs randomized relations — including the
// dict-encoded string keys that engage the translation path — through the
// scheduler comparison at several worker counts.
func TestMorselMatchesSingleScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9200))
	for trial := 0; trial < 10; trial++ {
		var b, r *table.Table
		if trial%2 == 0 {
			b, r = genBatchRelations(rng, false)
		} else {
			b, r = genStringRelations(rng, false)
		}
		theta := expr.And(
			expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
			expr.Le(expr.QC("R", "f"), expr.I(int64(rng.Intn(3)))))
		for _, p := range []int{2, 3, 8} {
			evalMorselVsRefs(t, fmt.Sprintf("trial %d", trial), b, r, stdSpecs(), theta, p)
		}
	}
}

// TestMorselSkewSharesPrebuiltChunks runs the skewed-survival shape —
// every key present in B sits in the first quarter of a Builder-built R —
// under DetailParallelism 4. The morsel workers must agree with a single
// scan row for row and in Semantic() stats, and every batch must read the
// parent table's prebuilt chunk mirror by offset: no worker transposes.
// That chunk sharing is the scheduler-independent part of the morsel
// queue's advantage on skew (a contiguous per-worker split of R loses the
// mirror and re-transposes every batch).
func TestMorselSkewSharesPrebuiltChunks(t *testing.T) {
	const n = 8 * morselRows
	hot := n / 4
	db := table.NewBuilder(table.SchemaOf("cust", "month", "sale"))
	for i := 0; i < n; i++ {
		cust := int64(1000 + i%2000) // absent from B
		if i < hot {
			cust = int64(i % 50) // present in B
		}
		db.Append(table.Row{
			table.Int(cust),
			table.Int(int64(i%12 + 1)),
			// Quarters sum exactly in float64, so the result cannot
			// depend on the order the workers' arenas merge in.
			table.Float(float64(i%97) / 4),
		})
	}
	r := db.Table()
	b := table.New(table.SchemaOf("cust", "month"))
	for c := 0; c < 50; c++ {
		for m := 1; m <= 12; m++ {
			b.Append(table.Row{table.Int(int64(c)), table.Int(int64(m))})
		}
	}
	specs := []agg.Spec{
		agg.NewSpec("sum", expr.QC("R", "sale"), "total"),
		agg.NewSpec("avg", expr.QC("R", "sale"), "mean"),
		agg.NewSpec("min", expr.QC("R", "sale"), "lo"),
		agg.NewSpec("max", expr.QC("R", "sale"), "hi"),
	}
	theta := expr.And(
		expr.Eq(expr.QC("R", "cust"), expr.C("cust")),
		expr.Eq(expr.QC("R", "month"), expr.C("month")))

	var sM, s1 Stats
	morsel := mdJoin(t, b, r, specs, theta, Options{DetailParallelism: 4, Stats: &sM})
	single := mdJoin(t, b, r, specs, theta, Options{Stats: &s1})
	if d := single.Diff(morsel); d != "" {
		t.Fatalf("morsel vs single: %s", d)
	}
	if sM.Semantic() != s1.Semantic() {
		t.Fatalf("stats diverge:\n morsel %s\n single %s", sM.Semantic(), s1.Semantic())
	}
	if sM.ChunksTransposed != 0 || sM.ChunksPrebuilt != sM.Batches || sM.Batches != n/batchSize {
		t.Fatalf("morsel workers must read every batch from the prebuilt mirror: batches=%d prebuilt=%d transposed=%d (want %d/%d/0)",
			sM.Batches, sM.ChunksPrebuilt, sM.ChunksTransposed, n/batchSize, n/batchSize)
	}
}

// genDictRelations builds base/detail pairs around the dict→dict code
// translation: an all-string base key column (dict-keyed index) against a
// detail string column whose dictionary disagrees with the base's — codes
// assigned in a different order, strings the base has never seen
// (translation misses), NULLs (dead keys), and optionally cube-ALL base
// cells probed through CubeEq (which keeps the boxed probe path; the two
// must agree).
func genDictRelations(rng *rand.Rand, cube bool) (*table.Table, *table.Table) {
	pool := []string{"ak", "ca", "ny", "tx", "wa"}
	b := table.New(table.SchemaOf("g1", "g2"))
	seen := map[string]bool{}
	for b.Len() < 2+rng.Intn(7) {
		var v1 table.Value = table.Str(pool[rng.Intn(len(pool))])
		if cube && rng.Intn(3) == 0 {
			v1 = table.All()
		}
		v2 := table.Int(int64(rng.Intn(3)))
		k := fmt.Sprintf("%d:%v/%v", v1.Kind(), v1, v2)
		if seen[k] {
			continue
		}
		seen[k] = true
		b.Append(table.Row{v1, v2})
	}
	// Detail dictionary: shuffled order plus strings absent from the base.
	dpool := append([]string{"zz", "qq"}, pool...)
	rng.Shuffle(len(dpool), func(i, j int) { dpool[i], dpool[j] = dpool[j], dpool[i] })
	r := table.New(table.SchemaOf("g1", "g2", "w", "f"))
	n := 20 + rng.Intn(3*table.ChunkSize)
	for i := 0; i < n; i++ {
		var g1 table.Value = table.Str(dpool[rng.Intn(len(dpool))])
		if rng.Intn(10) == 0 {
			g1 = table.Null()
		}
		r.Append(table.Row{
			g1,
			table.Int(int64(rng.Intn(4))),
			table.Float(float64(rng.Intn(100)) / 4),
			table.Int(int64(rng.Intn(3))),
		})
	}
	return b, r
}

// TestDictTranslationEquivalence pins the translated probe path against
// the scalar reference and the single scan on mismatched dictionaries,
// NULL keys, and — with cube masks — ALL base cells.
func TestDictTranslationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9300))
	for trial := 0; trial < 12; trial++ {
		cube := trial%3 == 2
		b, r := genDictRelations(rng, cube)
		var theta expr.Expr
		if cube {
			theta = expr.And(
				expr.CubeEq(expr.QC("R", "g1"), expr.C("g1")),
				expr.CubeEq(expr.QC("R", "g2"), expr.C("g2")))
		} else {
			theta = expr.And(
				expr.Eq(expr.QC("R", "g1"), expr.C("g1")),
				expr.Eq(expr.QC("R", "g2"), expr.C("g2")))
		}
		label := fmt.Sprintf("dict trial %d (cube=%v)", trial, cube)
		columnarVsScalar(t, label, b, r, stdSpecs(), theta, Options{})
		evalMorselVsRefs(t, label, b, r, stdSpecs(), theta, 4)
	}
}

// TestProbeFilterStats pins the fingerprint pre-filter's accounting on a
// low-hit-rate workload (most detail keys are absent from B): the
// columnar run must report the same Semantic stats as the scalar
// reference — skipped probes still count as probes with zero hits — while
// the tier-specific filter counters record that most probes resolved on
// tags alone and never exceed the probe count.
func TestProbeFilterStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9400))
	b := table.New(table.SchemaOf("g1"))
	for k := 0; k < 8; k++ {
		b.Append(table.Row{table.Int(int64(k))})
	}
	r := table.New(table.SchemaOf("g1", "w"))
	for i := 0; i < 4*table.ChunkSize; i++ {
		r.Append(table.Row{
			table.Int(int64(8 + rng.Intn(1000))), // absent from B
			table.Int(int64(i)),
		})
	}
	// A sprinkle of hits so both counters move.
	for i := 0; i < 64; i++ {
		r.Append(table.Row{table.Int(int64(i % 8)), table.Int(int64(i))})
	}
	theta := expr.Eq(expr.QC("R", "g1"), expr.C("g1"))
	specs := []agg.Spec{agg.NewSpec("count", nil, "n")}

	var columnar, scalar Stats
	mdJoin(t, b, r, specs, theta, Options{Stats: &columnar})
	mdJoin(t, b, r, specs, theta, Options{Stats: &scalar, DisableBatch: true})
	if columnar.Semantic() != scalar.Semantic() {
		t.Fatalf("stats diverge:\n columnar %s\n scalar   %s", columnar.Semantic(), scalar.Semantic())
	}
	ph := columnar.Phases[0]
	if ph.FilterSkipped == 0 {
		t.Fatal("low-hit-rate workload recorded no fingerprint skips")
	}
	if ph.FilterChecked+ph.FilterSkipped > ph.IndexProbes {
		t.Fatalf("filter counters exceed probes: checked=%d skipped=%d probes=%d",
			ph.FilterChecked, ph.FilterSkipped, ph.IndexProbes)
	}
	if ph.FilterSkipped < ph.FilterChecked {
		t.Fatalf("workload is ~99%% misses yet skipped=%d < checked=%d",
			ph.FilterSkipped, ph.FilterChecked)
	}
	for _, sc := range scalar.Phases {
		if sc.FilterChecked != 0 || sc.FilterSkipped != 0 {
			t.Fatalf("scalar tier must not report filter counters: %+v", sc)
		}
	}
}
