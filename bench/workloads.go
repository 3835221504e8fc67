package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mdjoin/internal/table"
	"mdjoin/internal/workload"
)

// opKind is one request type of the traffic.
type opKind int

const (
	opQuery     opKind = iota // POST /query
	opAppend                  // PUT /tables/Sales/append
	opViewWide                // GET /views/v_wide
	opViewSmall               // GET /views/v_small
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"query", "append", "view_wide", "view_small"}[k]
}

// op is one scheduled request. key identifies requests of equal work (the
// query text's index, or the kind for appends and view reads) so that
// latencies are compared like with like.
type op struct {
	kind opKind
	key  int
	text string // query text (opQuery)
	body []byte // CSV delta (opAppend)
}

// sizes are a workload's frozen dimensions. They were tuned once on the
// 2-core reference box (see README.md) and are part of the benchmark's
// definition: changing one invalidates every recorded baseline.
type sizes struct {
	rows, customers, products, years, states int

	texts      int // distinct query texts
	warmPasses int // warm-up passes over every distinct text (and view)
	rounds     int // measured rounds (inputs.opsPerRound ops each) of a refSeconds run
	deltaRows  int // rows per append (append_read)
}

// refSeconds is BENCHMARK.json's run_seconds: sizes.rounds is the count
// of rounds that fills that long on the reference box.
const refSeconds = 15

// measuredRounds is the measured phase's length as a count. It depends on
// --seconds and on nothing that is measured, so two commits run with the
// same --seconds do the same operations: 320 queries on scan_heavy, 270
// on result_heavy, 4 096 on plan_heavy and 120 append cycles (600 ops) on
// append_read at the reference 15 s.
func (s sizes) measuredRounds(seconds float64) int {
	return max(int(math.Round(float64(s.rounds)*seconds/refSeconds)), 1)
}

// viewDef is a materialized view: "select dims, items from Sales group by
// dims".
type viewDef struct{ name, dims, items string }

func (v viewDef) query() string {
	return fmt.Sprintf("select %s, %s from Sales group by %s", v.dims, v.items, v.dims)
}

// oracleQuery is the batch equivalent of the view after appends: the base
// values come from the relation the view was created over (Sales0), the
// aggregates from the grown one.
func (v viewDef) oracleQuery() string {
	return fmt.Sprintf("with VBase as (select %s from Sales0 group by %s) select %s, %s from Sales analyze by VBase(%s)",
		v.dims, v.dims, v.dims, v.items, v.dims)
}

// spec is a workload's definition; makeInputs turns it and a seed into
// bytes.
type spec struct {
	name string
	sz   sizes
	// texts builds the distinct query texts from the seed.
	texts func(rng *rand.Rand, sz sizes) []string
	views []viewDef
}

// specs are the four workloads, in the order `-workload all` runs them;
// README.md and BENCHMARK.json say why each exists.
var specs = []spec{
	{
		name:  "scan_heavy",
		sz:    sizes{rows: 120_000, customers: 2000, products: 200, years: 3, states: 10, texts: 8, warmPasses: 8, rounds: 40},
		texts: scanTexts,
	},
	{
		name:  "result_heavy",
		sz:    sizes{rows: 60_000, customers: 1000, products: 200, years: 3, states: 10, texts: 3, warmPasses: 18, rounds: 90},
		texts: resultTexts,
	},
	{
		name:  "plan_heavy",
		sz:    sizes{rows: 2000, customers: 50, products: 20, years: 3, states: 10, texts: 512, warmPasses: 2, rounds: 8},
		texts: planTexts,
	},
	{
		name:  "append_read",
		sz:    sizes{rows: 150_000, customers: 2000, products: 200, years: 3, states: 10, texts: 8, warmPasses: 6, rounds: 15, deltaRows: 1000},
		texts: scanTexts,
		views: []viewDef{
			{"v_small", "state, month", "sum(sale) as total, count(*) as n, avg(sale) as mean"},
			{"v_wide", "cust, month", "sum(sale) as total, count(*) as n"},
			{"v_median", "prod", "median(sale) as med"},
		},
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled divides the data and text counts by div (tests run at 1/100).
// Rows stay above 20 000 (or the full size): every few-group base must
// stay saturated, or appends add groups and row counts drift.
func (s sizes) scaled(div int) sizes {
	if div <= 1 {
		return s
	}
	s.rows = min(s.rows, max(s.rows/div, 20_000))
	s.customers = max(s.customers/div, 10)
	s.products = max(s.products/div, 5)
	s.texts = max(s.texts/div, min(s.texts, 8))
	s.deltaRows = max(s.deltaRows/div, min(s.deltaRows, 10))
	s.warmPasses = 1
	return s
}

// inputs are everything a run sends, generated from the seed alone.
type inputs struct {
	spec    spec
	sz      sizes
	baseCSV []byte   // the Sales upload
	texts   []string // distinct query texts, in rotation order
	deltas  [][]byte // CSV appends, in cycle order
}

const firstYear = 1995

func salesCSV(cfg workload.SalesConfig) ([]byte, error) {
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf, workload.Sales(cfg)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// makeInputs generates a run's inputs; rounds is how many rounds of the
// schedule the run will send (append_read needs a delta per cycle).
func makeInputs(sp spec, seed int64, scale, rounds int) (*inputs, error) {
	sz := sp.sz.scaled(scale)
	in := &inputs{spec: sp, sz: sz}
	cfg := workload.SalesConfig{
		Rows: sz.rows, Customers: sz.customers, Products: sz.products,
		Years: sz.years, FirstYear: firstYear, States: sz.states, Seed: seed,
	}
	var err error
	if in.baseCSV, err = salesCSV(cfg); err != nil {
		return nil, err
	}
	in.texts = sp.texts(rand.New(rand.NewSource(seed)), sz)
	if sz.deltaRows > 0 {
		// One generated relation cut into deltas: a single pass of the
		// generator instead of one start-up per cycle.
		cycles := rounds * len(in.texts)
		cfg.Rows = sz.deltaRows * cycles
		cfg.Seed = seed ^ 0x5eed_de17a
		all := workload.Sales(cfg)
		for c := 0; c < cycles; c++ {
			var buf bytes.Buffer
			part := &table.Table{Schema: all.Schema, Rows: all.Rows[c*sz.deltaRows : (c+1)*sz.deltaRows]}
			if err := table.WriteCSV(&buf, part); err != nil {
				return nil, err
			}
			in.deltas = append(in.deltas, buf.Bytes())
		}
	}
	return in, nil
}

// opsPerRound is the length of the schedule's repeating pattern: one pass
// over the texts — for append_read, as many cycles as there are texts.
// The measured loop is cut at these boundaries, so every block holds the
// same mix of work.
func (in *inputs) opsPerRound() int {
	if len(in.deltas) > 0 {
		return 5 * len(in.texts)
	}
	return len(in.texts)
}

// limit is the schedule's length; only append_read has one (a delta is
// generated for every cycle the run was sized for, and no more).
func (in *inputs) limit() int {
	if len(in.deltas) > 0 {
		return 5 * len(in.deltas)
	}
	return int(^uint(0) >> 1)
}

// at returns the i-th operation of the fixed schedule. Query workloads
// rotate their texts; append_read repeats the cycle [append · read
// v_wide ×2 · read v_small · one ad-hoc query], so the table size at
// every op index is the same on every run.
func (in *inputs) at(i int) op {
	if len(in.deltas) == 0 {
		k := i % len(in.texts)
		return op{kind: opQuery, key: k, text: in.texts[k]}
	}
	c := i / 5
	switch i % 5 {
	case 0:
		return op{kind: opAppend, key: -1, body: in.deltas[c]}
	case 1, 2:
		return op{kind: opViewWide, key: -2}
	case 3:
		return op{kind: opViewSmall, key: -3}
	default:
		k := c % len(in.texts)
		return op{kind: opQuery, key: k, text: in.texts[k]}
	}
}

// ---------------------------------------------------------------- texts

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

var states = []string{"NY", "NJ", "CT", "CA", "IL", "TX", "WA", "FL", "MA", "PA"}

// The seed moves every constant in the texts below but never a shape or
// a selectivity: thresholds jitter by about a percent around a fixed
// quantile, and states and years are drawn from uniform columns. Runs
// with different seeds therefore do statistically the same work, and a
// spread across seeds measures the machine, not the inputs.

// near returns about frac of n, jittered by up to ±1 % of n.
func near(rng *rand.Rand, n int, frac float64) int {
	j := max(n/100, 1)
	return max(int(float64(n)*frac)+rng.Intn(2*j+1)-j, 1)
}

// scanTexts are eight sibling EMF queries over few-group bases: one to
// three grouping variables, Theorem 4.2 pushdown predicates on int, float
// and dictionary-string columns, a dependent series (Theorem 4.3) and a
// WHERE-filtered base.
func scanTexts(rng *rand.Rand, sz sizes) []string {
	year := func() int { return firstYear + rng.Intn(sz.years) }
	sale := func() float64 { return float64(near(rng, 1000, 0.5)) + 0.5 }
	st := rng.Perm(sz.states)
	s1, s2, s3 := states[st[0]], states[st[1]], states[st[2]]
	return []string{
		"select state, month, sum(sale) as total, count(*) as n from Sales group by state, month",
		fmt.Sprintf("select state, month, avg(X.sale) as ax, avg(Y.sale) as ay from Sales group by state, month : X, Y "+
			"such that X.state = state and X.month = month and X.year = %d, "+
			"Y.state = state and Y.month = month and Y.sale > %.1f", year(), sale()),
		fmt.Sprintf("select month, sum(X.sale) as a, sum(Y.sale) as b, count(Z.*) as c from Sales group by month : X, Y, Z "+
			"such that X.month = month and X.state = '%s', Y.month = month and Y.state = '%s', "+
			"Z.month = month and Z.sale > avg(X.sale)", s1, s2),
		fmt.Sprintf("select state, year, sum(X.sale) as total, count(X.*) as n from Sales group by state, year : X "+
			"such that X.state = state and X.year = year and X.prod <= %d", near(rng, sz.products, 0.5)),
		fmt.Sprintf("select month, count(X.*) as n, max(X.sale) as top from Sales group by month : X "+
			"such that X.month = month and X.cust <= %d and X.sale >= %.1f", near(rng, sz.customers, 0.5), sale()),
		"select state, year, avg(X.sale) as t1, avg(Y.sale) as t2, avg(Z.sale) as t3 from Sales group by state, year : X, Y, Z " +
			"such that X.state = state and X.year = year and X.month <= 4, " +
			"Y.state = state and Y.year = year and Y.month >= 5 and Y.month <= 8, " +
			"Z.state = state and Z.year = year and Z.month >= 9",
		fmt.Sprintf("select state, month, sum(sale) as total from Sales where year = %d and state in ('%s', '%s', '%s') group by state, month",
			year(), s1, s2, s3),
		"select state, month, sum(X.sale) as prev, sum(Y.sale) as cur from Sales group by state, month : X, Y " +
			"such that X.state = state and X.month = month - 1, Y.state = state and Y.month = month",
	}
}

// resultTexts have large outputs: ~rows groups for (cust, prod), two
// variables over (cust, month), and the (prod, month) cube.
func resultTexts(rng *rand.Rand, sz sizes) []string {
	return []string{
		"select cust, prod, sum(sale) as total, count(*) as n from Sales group by cust, prod",
		fmt.Sprintf("select cust, month, sum(X.sale) as a, avg(Y.sale) as b from Sales group by cust, month : X, Y "+
			"such that X.cust = cust and X.month = month and X.year = %d, Y.cust = cust and Y.month = month",
			firstYear+rng.Intn(sz.years)),
		"select prod, month, sum(sale) as total, count(*) as n from Sales analyze by cube(prod, month)",
	}
}

// planTexts enumerates a small grammar: one or two base dimensions, one
// to four grouping variables with int, float, string and IN-list
// predicates, an optional WITH base-values CTE or WHERE, ORDER BY over
// the (unique) dimensions and LIMIT. The shape of text i is a function of
// i alone, so every seed plans the same mix; the seed draws the constants,
// which also make the texts distinct. Ordering by the dimensions keeps
// LIMIT deterministic, so every answer is checkable.
func planTexts(rng *rand.Rand, sz sizes) []string {
	dims := [][]string{{"state"}, {"month"}, {"year"}, {"prod"}, {"state", "month"}, {"state", "year"}, {"prod", "month"}, {"month", "year"}}
	fns := []string{"sum", "avg", "min", "max", "count"}
	seen := map[string]bool{}
	var out []string
	for i := 0; len(out) < sz.texts; i++ {
		d := dims[i%len(dims)]
		nv := 1 + i/len(dims)%4
		var sel, decl, such []string
		sel = append(sel, d...)
		for v := 0; v < nv; v++ {
			name := "XYZW"[v : v+1]
			decl = append(decl, name)
			if fn := fns[(i+v)%len(fns)]; fn == "count" {
				sel = append(sel, fmt.Sprintf("count(%s.*) as c%d", name, v))
			} else {
				sel = append(sel, fmt.Sprintf("%s(%s.sale) as a%d", fn, name, v))
			}
			var conj []string
			for _, c := range d {
				conj = append(conj, fmt.Sprintf("%s.%s = %s", name, c, c))
			}
			switch (i/32 + v) % 4 {
			case 0:
				conj = append(conj, fmt.Sprintf("%s.cust <= %d", name, 1+rng.Intn(sz.customers)))
			case 1:
				conj = append(conj, fmt.Sprintf("%s.sale > %d.25", name, rng.Intn(900)))
			case 2:
				conj = append(conj, fmt.Sprintf("%s.state = '%s'", name, pick(rng, states[:sz.states])))
			default:
				conj = append(conj, fmt.Sprintf("%s.day in (%d, %d, %d)", name, 1+rng.Intn(28), 1+rng.Intn(28), 1+rng.Intn(28)))
			}
			such = append(such, strings.Join(conj, " and "))
		}
		var q strings.Builder
		extra := i / 128 % 4 // 0 WITH base, 1 WHERE, 2 and 3 plain
		if extra == 0 {
			fmt.Fprintf(&q, "with Base as (select %s from Sales where sale > %d.5 group by %s) ",
				strings.Join(d, ", "), rng.Intn(500), strings.Join(d, ", "))
		}
		fmt.Fprintf(&q, "select %s from Sales", strings.Join(sel, ", "))
		if extra == 0 {
			fmt.Fprintf(&q, " analyze by Base(%s)", strings.Join(d, ", "))
		} else {
			if extra == 1 {
				fmt.Fprintf(&q, " where year >= %d", firstYear+rng.Intn(sz.years))
			}
			fmt.Fprintf(&q, " group by %s : %s", strings.Join(d, ", "), strings.Join(decl, ", "))
		}
		fmt.Fprintf(&q, " such that %s", strings.Join(such, ", "))
		if i%2 == 0 {
			fmt.Fprintf(&q, " order by %s", strings.Join(d, ", "))
			if i%4 == 0 {
				fmt.Fprintf(&q, " limit %d", 1+rng.Intn(20))
			}
		}
		if t := q.String(); !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
