package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"mdjoin/internal/sqlext"
)

// digest hashes everything a run would send, in schedule order.
func digest(t *testing.T, in *inputs, ops int) string {
	t.Helper()
	h := sha256.New()
	h.Write(in.baseCSV)
	for _, v := range in.spec.views {
		fmt.Fprintln(h, v.name, v.query())
	}
	for i := 0; i < min(ops, in.limit()); i++ {
		o := in.at(i)
		fmt.Fprintln(h, o.kind, o.key, o.text)
		h.Write(o.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		a, err := makeInputs(sp, 7, 100, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(sp, 7, 100, 5)
		c, _ := makeInputs(sp, 8, 100, 5)
		da, db, dc := digest(t, a, 200), digest(t, b, 200), digest(t, c, 200)
		if da != db {
			t.Errorf("%s: equal seeds gave different inputs", sp.name)
		}
		if da == dc {
			t.Errorf("%s: different seeds gave identical inputs", sp.name)
		}
		if bytes.Equal(a.baseCSV, c.baseCSV) {
			t.Errorf("%s: the seed does not reach the data", sp.name)
		}
	}
}

// TestSeedMovesConstantsNotShapes: runs with different seeds must do the
// same kind of work, or a spread across seeds measures the inputs.
func TestSeedMovesConstantsNotShapes(t *testing.T) {
	shape := func(text string) string {
		q, err := sqlext.Parse(text)
		if err != nil {
			t.Fatalf("%v\n%s", err, text)
		}
		return fmt.Sprintf("with=%d vars=%d dims=%v op=%s where=%t order=%d limit=%t",
			len(q.With), len(q.GroupVars), q.Analyze.Dims, q.Analyze.Op, q.Where != nil, len(q.OrderBy), q.Limit > 0)
	}
	for _, sp := range specs {
		a, _ := makeInputs(sp, 1, 100, 5)
		b, _ := makeInputs(sp, 2, 100, 5)
		if len(a.texts) != len(b.texts) {
			t.Fatalf("%s: %d texts at seed 1, %d at seed 2", sp.name, len(a.texts), len(b.texts))
		}
		for k := range a.texts {
			if shape(a.texts[k]) != shape(b.texts[k]) {
				t.Errorf("%s text %d changes shape with the seed:\n%s\n%s", sp.name, k, a.texts[k], b.texts[k])
			}
		}
	}
}

func TestPlanTextsAreDistinctAndParse(t *testing.T) {
	sp, _ := findSpec("plan_heavy")
	in, err := makeInputs(sp, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.texts) != 512 {
		t.Fatalf("%d texts, want 512: the plan LRU (128) must always miss", len(in.texts))
	}
	seen := map[string]bool{}
	withs, limits := 0, 0
	for _, text := range in.texts {
		if seen[text] {
			t.Errorf("duplicate text: %s", text)
		}
		seen[text] = true
		q, err := sqlext.Parse(text)
		if err != nil {
			t.Fatalf("%v\n%s", err, text)
		}
		if len(q.With) > 0 {
			withs++
		}
		if q.Limit > 0 {
			limits++
			if len(q.OrderBy) == 0 {
				t.Errorf("LIMIT without ORDER BY is not checkable: %s", text)
			}
		}
	}
	if withs == 0 || limits == 0 {
		t.Errorf("grammar lost a branch: %d WITH, %d LIMIT", withs, limits)
	}
}

func TestAppendReadCycle(t *testing.T) {
	sp, _ := findSpec("append_read")
	in, err := makeInputs(sp, 1, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []opKind{opAppend, opViewWide, opViewWide, opViewSmall, opQuery}
	for i := 0; i < 3*len(want); i++ {
		if got := in.at(i).kind; got != want[i%len(want)] {
			t.Errorf("op %d is %v, want %v", i, got, want[i%len(want)])
		}
	}
	if !bytes.Equal(in.at(5).body, in.deltas[1]) || bytes.Equal(in.deltas[0], in.deltas[1]) {
		t.Error("cycle c must append delta c, and deltas must differ")
	}
	if in.limit() != 5*len(in.deltas) || in.opsPerRound() != 5*len(in.texts) {
		t.Errorf("limit %d, round %d", in.limit(), in.opsPerRound())
	}
}

// TestMeasuredPhaseIsACount: the measured phase is sized by --seconds and
// by nothing a run measures, and at the reference --seconds it is the
// frozen op count README.md records.
func TestMeasuredPhaseIsACount(t *testing.T) {
	want := map[string]int{"scan_heavy": 320, "result_heavy": 270, "plan_heavy": 4096, "append_read": 600}
	for _, sp := range specs {
		rounds := sp.sz.measuredRounds(refSeconds)
		in, err := makeInputs(sp, 1, 100, rounds)
		if err != nil {
			t.Fatal(err)
		}
		// Text counts are not scaled below 8, so only plan_heavy's differs.
		ops := rounds * in.opsPerRound() * sp.sz.texts / len(in.texts)
		if ops != want[sp.name] {
			t.Errorf("%s: %d measured ops at %d s, want %d", sp.name, ops, refSeconds, want[sp.name])
		}
		if len(in.deltas) > 0 && in.limit() != rounds*in.opsPerRound() {
			t.Errorf("%s: %d ops generated for a schedule of %d", sp.name, in.limit(), rounds*in.opsPerRound())
		}
		if got := sp.sz.measuredRounds(2 * refSeconds); got != 2*rounds {
			t.Errorf("%s: %d rounds at twice the seconds, want %d", sp.name, got, 2*rounds)
		}
		if got := sp.sz.measuredRounds(0.01); got != 1 {
			t.Errorf("%s: %d rounds at 0.01 s, want 1", sp.name, got)
		}
	}
}
