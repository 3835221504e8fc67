package main

import (
	"strings"
	"testing"

	"mdjoin/internal/table"
)

func TestCheckAnswer(t *testing.T) {
	want := table.MustFromRows(table.SchemaOf("state", "month", "total", "n"), []table.Row{
		{table.Str("NY"), table.Int(1), table.Float(10.5), table.Int(3)},
		{table.Str("NJ"), table.Int(2), table.Float(1e9 / 3), table.Int(1)},
		{table.Str("CT"), table.All(), table.Null(), table.Int(0)},
	})
	// Rows in another order, a float off by 1e-12 relative, an integral
	// float printed as an integer: all still the same relation.
	ok := `{"columns":["state","month","total","n"],"row_count":3,"cached_plan":true,"rows":[
		["CT","ALL",null,0],["NY",1,10.5,3],["NJ",2,333333333.33333366,1]]}`
	got, err := decodeAnswer([]byte(ok))
	if err != nil {
		t.Fatal(err)
	}
	if !got.CachedPlan {
		t.Error("cached_plan not decoded")
	}
	if err := checkAnswer(got, want); err != nil {
		t.Errorf("equal relations rejected: %v", err)
	}
	for name, body := range map[string]string{
		"float off by 1e-6":  strings.Replace(ok, "10.5", "10.50001", 1),
		"wrong int":          strings.Replace(ok, `10.5,3]`, `10.5,4]`, 1),
		"wrong row_count":    strings.Replace(ok, `"row_count":3`, `"row_count":2`, 1),
		"null for a value":   strings.Replace(ok, `10.5`, `null`, 1),
		"wrong dimension":    strings.Replace(ok, `"NY"`, `"PA"`, 1),
		"missing row":        strings.Replace(ok, `["CT","ALL",null,0],`, ``, 1),
		"renamed column":     strings.Replace(ok, `"total"`, `"sum"`, 1),
		"string for a float": strings.Replace(ok, `10.5`, `"10.5"`, 1),
	} {
		got, err := decodeAnswer([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if checkAnswer(got, want) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRowCountOf(t *testing.T) {
	// A cell that spells the field name must not be mistaken for it: the
	// envelope's own row_count comes after the rows.
	body := []byte(`{"columns":["x"],"rows":[["\"row_count\":99"]],"row_count":1,"elapsed_ms":0.2}`)
	if n, ok := rowCountOf(body); !ok || n != 1 {
		t.Errorf("rowCountOf = %d, %v; want 1, true", n, ok)
	}
	if _, ok := rowCountOf([]byte(`{"error":"boom"}`)); ok {
		t.Error("found a row_count in an error envelope")
	}
}
