package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mdjoin/internal/agg"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// fillNonZero sets every numeric field to a nonzero value, every bool to
// true, and populates slices of structs with one filled element.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		el := reflect.New(v.Type().Elem()).Elem()
		fillNonZero(el)
		v.Set(reflect.Append(reflect.MakeSlice(v.Type(), 0, 1), el))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i))
		}
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

// assertNonZero fails on any field Merge left at its zero value.
func assertNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Int() == 0 {
			t.Errorf("Stats.Merge drops field %s", path)
		}
	case reflect.Bool:
		if !v.Bool() {
			t.Errorf("Stats.Merge drops field %s", path)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("Stats.Merge drops field %s", path)
			return
		}
		for i := 0; i < v.Len(); i++ {
			assertNonZero(t, v.Index(i), path+"[i]")
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			assertNonZero(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	default:
		t.Fatalf("assertNonZero: unhandled kind %s at %s", v.Kind(), path)
	}
}

// TestStatsMergeCoversAllFields pins the single-merge-point contract: every
// field of Stats (and of the per-phase subtree) must be covered by Merge.
// A counter added to the struct but not to Merge fails here, instead of
// being silently dropped by the parallel paths — the drift this PR fixed.
func TestStatsMergeCoversAllFields(t *testing.T) {
	var src Stats
	fillNonZero(reflect.ValueOf(&src).Elem())
	var dst Stats
	dst.Merge(&src)
	assertNonZero(t, reflect.ValueOf(dst), "Stats")

	// Merging into an already populated tree adds rather than overwrites.
	dst.Merge(&src)
	if dst.PairsTested != 2*src.PairsTested || dst.Phases[0].IndexProbes != 2*src.Phases[0].IndexProbes {
		t.Errorf("second merge did not add: %+v", dst)
	}
	// Nil merge is a no-op.
	before := dst.Semantic()
	dst.Merge(nil)
	if dst.Semantic() != before {
		t.Error("Merge(nil) changed the stats")
	}
}

func TestStatsTierLabel(t *testing.T) {
	cases := []struct {
		phases []PhaseStats
		want   string
	}{
		{nil, ""},
		{[]PhaseStats{{Tier: TierScalar}}, "scalar"},
		{[]PhaseStats{{Tier: TierColumnar}, {Tier: TierColumnar}}, "columnar"},
		{[]PhaseStats{{Tier: TierColumnar}, {Tier: TierScalar}}, "mixed"},
		{[]PhaseStats{{Tier: TierUnset}, {Tier: TierScalar}}, "scalar"},
	}
	for i, c := range cases {
		s := Stats{Phases: c.phases}
		if got := s.TierLabel(); got != c.want {
			t.Errorf("case %d: TierLabel() = %q, want %q", i, got, c.want)
		}
	}
}

// TestStatsStringReportsTier pins the satellite fix: String must report the
// executor tier that actually ran, not just indexed/nested-loop.
func TestStatsStringReportsTier(t *testing.T) {
	b, r := statsFixture()
	theta := expr.Eq(expr.QC("R", "g"), expr.C("g"))
	specs := []agg.Spec{agg.NewSpec("count", nil, "n")}
	for _, tc := range []struct {
		opt  Options
		want string
	}{
		{Options{}, "columnar"},
		{Options{DisableBatch: true}, "scalar"},
	} {
		var s Stats
		tc.opt.Stats = &s
		if _, err := Eval(b, r, []Phase{{Aggs: specs, Theta: theta}}, tc.opt); err != nil {
			t.Fatal(err)
		}
		if got := s.String(); !strings.Contains(got, tc.want) || !strings.Contains(got, "indexed") {
			t.Errorf("String() = %q, want tier %q and access path", got, tc.want)
		}
	}
}

// TestStatsTierWireValues pins the JSON encoding of PhaseStats.Tier: the
// tier travels as a number in serialized Stats trees (mdserve's ?stats=1
// responses), so the columnar executor must keep encoding as 3 and the
// scalar interpreter as 1 whatever other tiers come and go.
func TestStatsTierWireValues(t *testing.T) {
	b, r := statsFixture()
	theta := expr.Eq(expr.QC("R", "g"), expr.C("g"))
	specs := []agg.Spec{agg.NewSpec("count", nil, "n")}
	for _, tc := range []struct {
		opt  Options
		want string
	}{
		{Options{}, `"tier":3`},
		{Options{DisableBatch: true}, `"tier":1`},
	} {
		var s Stats
		tc.opt.Stats = &s
		if _, err := Eval(b, r, []Phase{{Aggs: specs, Theta: theta}}, tc.opt); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), tc.want) {
			t.Errorf("%s run encodes as %s, want %s", s.TierLabel(), data, tc.want)
		}
	}
}

func statsFixture() (*table.Table, *table.Table) {
	b := table.MustFromRows(table.SchemaOf("g"), []table.Row{
		{table.Int(0)}, {table.Int(1)}, {table.Int(2)},
	})
	r := table.New(table.SchemaOf("g", "w"))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 400; i++ {
		r.Append(table.Row{table.Int(int64(rng.Intn(4))), table.Int(int64(rng.Intn(50)))})
	}
	return b, r
}

// TestPhaseStatsCounters sanity-checks the per-phase counters on an
// indexed, pushdown-bearing query on both tiers.
func TestPhaseStatsCounters(t *testing.T) {
	b, r := statsFixture()
	theta := expr.And(
		expr.Eq(expr.QC("R", "g"), expr.C("g")),
		expr.Le(expr.QC("R", "w"), expr.I(25)))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "w"), "total")}
	for name, opt := range map[string]Options{
		"columnar": {},
		"scalar":   {DisableBatch: true},
	} {
		var s Stats
		opt.Stats = &s
		if _, err := Eval(b, r, []Phase{{Aggs: specs, Theta: theta}}, opt); err != nil {
			t.Fatal(err)
		}
		if len(s.Phases) != 1 {
			t.Fatalf("%s: phases = %d, want 1", name, len(s.Phases))
		}
		ph := s.Phases[0]
		if !ph.IndexUsed || ph.IndexProbes == 0 {
			t.Errorf("%s: index not reported: %+v", name, ph)
		}
		if ph.PushdownIn != r.Len() || ph.PushdownOut >= ph.PushdownIn || ph.PushdownOut == 0 {
			t.Errorf("%s: pushdown selectivity off: in=%d out=%d (|R|=%d)", name, ph.PushdownIn, ph.PushdownOut, r.Len())
		}
		if ph.IndexProbes != ph.PushdownOut {
			t.Errorf("%s: probes=%d, want one per surviving tuple (%d)", name, ph.IndexProbes, ph.PushdownOut)
		}
		if ph.PairsMatched != s.PairsMatched || ph.PairsTested != s.PairsTested {
			t.Errorf("%s: phase pair counters diverge from flat: %+v vs %+v", name, ph, s)
		}
		if s.ArenaBytes <= 0 {
			t.Errorf("%s: ArenaBytes = %d, want > 0", name, s.ArenaBytes)
		}
		if s.ScanNanos <= 0 || s.CompileNanos <= 0 || s.AssembleNanos <= 0 {
			t.Errorf("%s: stage times missing: compile=%d scan=%d assemble=%d", name, s.CompileNanos, s.ScanNanos, s.AssembleNanos)
		}
		switch name {
		case "columnar":
			if s.Batches == 0 || ph.TypedElems == 0 {
				t.Errorf("columnar: batches=%d typed=%d, want both > 0", s.Batches, ph.TypedElems)
			}
		case "scalar":
			if s.Batches != 0 || s.ChunksPrebuilt != 0 || s.ChunksTransposed != 0 || ph.TypedElems != 0 || ph.BoxedElems != 0 {
				t.Errorf("scalar: batch counters must stay zero: %+v", s)
			}
		}
	}
}

// TestPartitionedParallelCompose pins the satellite fix for the silent
// parallelism drop: MaxBaseRows (or MemoryBudgetBytes) combined with
// Parallelism or DetailParallelism now evaluates each partition pass with
// the requested parallel strategy instead of silently zeroing it, for both
// Eval and EvalSource.
func TestPartitionedParallelCompose(t *testing.T) {
	b, r := statsFixture()
	theta := expr.Eq(expr.QC("R", "g"), expr.C("g"))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "w"), "total"), agg.NewSpec("count", nil, "n")}
	phases := []Phase{{Aggs: specs, Theta: theta}}
	want, err := Eval(b, r, phases, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := table.NewTableSource(r)
	for name, opt := range map[string]Options{
		"maxbase+base-par":   {MaxBaseRows: 2, Parallelism: 2},
		"maxbase+detail-par": {MaxBaseRows: 2, DetailParallelism: 3},
		"budget+detail-par":  {MemoryBudgetBytes: 1, DetailParallelism: 3},
	} {
		var s Stats
		opt.Stats = &s
		got, err := Eval(b, r, phases, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := want.Diff(got); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		if s.PartitionPasses < 2 {
			t.Errorf("%s: PartitionPasses = %d, want ≥ 2", name, s.PartitionPasses)
		}
		if s.TuplesScanned == 0 || s.PairsMatched == 0 {
			t.Errorf("%s: merged stats empty: %+v", name, s)
		}

		var ss Stats
		opt.Stats = &ss
		gotSrc, err := EvalSource(b, src, phases, opt)
		if err != nil {
			t.Fatalf("%s (source): %v", name, err)
		}
		if d := want.Diff(gotSrc); d != "" {
			t.Fatalf("%s (source): %s", name, d)
		}
		if ss.PartitionPasses < 2 {
			t.Errorf("%s (source): PartitionPasses = %d, want ≥ 2", name, ss.PartitionPasses)
		}
	}
}

// TestEmptyRelationsParallel: empty B with base parallelism and empty R
// with detail parallelism must return schema-correct results (no rows /
// NULL-or-zero aggregates) with sane merged stats, via Eval and EvalSource.
func TestEmptyRelationsParallel(t *testing.T) {
	theta := expr.Eq(expr.QC("R", "g"), expr.C("g"))
	specs := []agg.Spec{agg.NewSpec("sum", expr.QC("R", "w"), "total"), agg.NewSpec("count", nil, "n")}
	phases := []Phase{{Aggs: specs, Theta: theta}}

	t.Run("empty base", func(t *testing.T) {
		b := table.New(table.SchemaOf("g"))
		_, r := statsFixture()
		src := table.NewTableSource(r)
		for _, run := range []struct {
			name string
			eval func(Options) (*table.Table, error)
		}{
			{"eval", func(o Options) (*table.Table, error) { return Eval(b, r, phases, o) }},
			{"source", func(o Options) (*table.Table, error) { return EvalSource(b, src, phases, o) }},
		} {
			var s Stats
			out, err := run.eval(Options{Parallelism: 4, Stats: &s})
			if err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			if out.Len() != 0 {
				t.Fatalf("%s: rows = %d, want 0", run.name, out.Len())
			}
			wantCols := []string{"g", "total", "n"}
			if got := out.Schema.Names(); !reflect.DeepEqual(got, wantCols) {
				t.Fatalf("%s: schema = %v, want %v", run.name, got, wantCols)
			}
			if s.PairsMatched != 0 {
				t.Errorf("%s: PairsMatched = %d on empty base", run.name, s.PairsMatched)
			}
		}
	})

	t.Run("empty detail", func(t *testing.T) {
		b, _ := statsFixture()
		r := table.New(table.SchemaOf("g", "w"))
		src := table.NewTableSource(r)
		for _, run := range []struct {
			name string
			eval func(Options) (*table.Table, error)
		}{
			{"eval", func(o Options) (*table.Table, error) { return Eval(b, r, phases, o) }},
			{"source", func(o Options) (*table.Table, error) { return EvalSource(b, src, phases, o) }},
		} {
			var s Stats
			out, err := run.eval(Options{DetailParallelism: 4, Stats: &s})
			if err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			if out.Len() != b.Len() {
				t.Fatalf("%s: rows = %d, want %d", run.name, out.Len(), b.Len())
			}
			for i := 0; i < out.Len(); i++ {
				if v := out.Value(i, "total"); !v.IsNull() {
					t.Errorf("%s: row %d sum = %v, want NULL", run.name, i, v)
				}
				if v := out.Value(i, "n"); v.AsInt() != 0 {
					t.Errorf("%s: row %d count = %v, want 0", run.name, i, v)
				}
			}
			if s.TuplesScanned != 0 || s.PairsTested != 0 {
				t.Errorf("%s: stats counted phantom tuples: %+v", run.name, s)
			}
		}
	})
}
