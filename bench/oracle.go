package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mdjoin/internal/core"
	"mdjoin/internal/optimizer"
	"mdjoin/internal/sqlext"
	"mdjoin/internal/table"
)

// answer is the part of a /query or /views/{name} response the benchmark
// reads.
type answer struct {
	Columns    []string    `json:"columns"`
	Rows       [][]any     `json:"rows"`
	RowCount   int         `json:"row_count"`
	CachedPlan bool        `json:"cached_plan"`
	Stats      *core.Stats `json:"stats"`
}

func decodeAnswer(body []byte) (*answer, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var a answer
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &a, nil
}

// rowCountOf reads row_count without decoding the rows: the measured
// phase checks every response, and a 2 MB body must not cost a full
// decode per request. The envelope writes row_count after the rows, so
// the last occurrence is the envelope's.
func rowCountOf(body []byte) (int, bool) {
	const field = `"row_count":`
	i := bytes.LastIndex(body, []byte(field))
	if i < 0 {
		return 0, false
	}
	n, seen := 0, false
	for _, c := range body[i+len(field):] {
		if c < '0' || c > '9' {
			break
		}
		n, seen = n*10+int(c-'0'), true
	}
	return n, seen
}

// oracleAnswer evaluates a query with the tuple-at-a-time Algorithm 3.1
// interpreter — the reference every faster path must agree with.
func oracleAnswer(text string, cat optimizer.Catalog) (*table.Table, error) {
	return sqlext.RunContext(context.Background(), text, cat, core.Options{DisableBatch: true})
}

const floatTol = 1e-9

// checkAnswer compares a decoded response with the oracle's relation:
// same columns, same rows as a multiset, floats within 1e-9 relative.
// Rows are matched by sorting both sides on the columns that hold no
// float (the grouping dimensions, which are unique per row), so float
// noise cannot reorder them.
func checkAnswer(got *answer, want *table.Table) error {
	if !slices.EqualFunc(got.Columns, want.Schema.Names(), strings.EqualFold) {
		return fmt.Errorf("columns %v, want %v", got.Columns, want.Schema.Names())
	}
	if got.RowCount != want.Len() || len(got.Rows) != want.Len() {
		return fmt.Errorf("row_count %d with %d rows, want %d", got.RowCount, len(got.Rows), want.Len())
	}
	w := want.Schema.Len()
	floatCol := make([]bool, w)
	for _, r := range want.Rows {
		for j, v := range r {
			if v.Kind() == table.KindFloat {
				floatCol[j] = true
			}
		}
	}
	wantRows := make([][]any, want.Len())
	for i, r := range want.Rows {
		row := make([]any, w)
		for j, v := range r {
			row[j] = cellOf(v)
		}
		wantRows[i] = row
	}
	gotRows := append([][]any(nil), got.Rows...)
	for _, r := range gotRows {
		if len(r) != w {
			return fmt.Errorf("row with %d cells, want %d", len(r), w)
		}
	}
	sortRows(gotRows, floatCol)
	sortRows(wantRows, floatCol)
	for i := range wantRows {
		for j := range wantRows[i] {
			if !cellEqual(gotRows[i][j], wantRows[i][j]) {
				return fmt.Errorf("row %d column %s: got %v, want %v", i, got.Columns[j], gotRows[i][j], wantRows[i][j])
			}
		}
	}
	return nil
}

// cellOf maps an oracle value to what the server's JSON encoding of it
// decodes to.
func cellOf(v table.Value) any {
	switch v.Kind() {
	case table.KindNull:
		return nil
	case table.KindAll:
		return "ALL"
	case table.KindInt:
		return json.Number(fmt.Sprint(v.AsInt()))
	case table.KindFloat:
		return v.AsFloat()
	case table.KindBool:
		return v.AsBool()
	default:
		return v.String()
	}
}

func number(c any) (float64, bool) {
	switch x := c.(type) {
	case float64:
		return x, true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

func cellEqual(a, b any) bool {
	fa, oka := number(a)
	fb, okb := number(b)
	if oka || okb {
		if !oka || !okb {
			return false
		}
		return fa == fb || math.Abs(fa-fb) <= floatTol*math.Max(math.Abs(fa), math.Abs(fb))
	}
	return a == b
}

func sortRows(rows [][]any, floatCol []bool) {
	type keyed struct {
		key string
		row []any
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for j, c := range r {
			if !floatCol[j] {
				fmt.Fprintf(&b, "%v|", c)
			}
		}
		ks[i] = keyed{b.String(), r}
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].key < ks[b].key })
	for i, k := range ks {
		rows[i] = k.row
	}
}
