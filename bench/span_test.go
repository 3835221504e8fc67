package main

import (
	"strings"
	"testing"
	"time"
)

func TestSelfTimeIsParentMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "request", StartNs: 0, EndNs: 100, Parent: -1},
		{ID: 1, Name: "parse", StartNs: 5, EndNs: 15, Parent: 0},
		{ID: 2, Name: "exec", StartNs: 20, EndNs: 90, Parent: 0},
		{ID: 3, Name: "scan", StartNs: 30, EndNs: 80, Parent: 2},
		{ID: 4, Name: "assemble", StartNs: 80, EndNs: 85, Parent: 2}, // touching a sibling is not overlapping
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]time.Duration{0: 20, 1: 10, 2: 15, 3: 50, 4: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d %s] = %d, want %d", id, spans[id].Name, self[id], w)
		}
	}
	// Self times of a tree add back up to the root.
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestSelfTimeRejectsBrokenTrees(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  string
	}{
		{"overlapping siblings", []span{
			{ID: 0, StartNs: 0, EndNs: 100, Parent: -1},
			{ID: 1, StartNs: 10, EndNs: 50, Parent: 0},
			{ID: 2, StartNs: 40, EndNs: 60, Parent: 0},
		}, "overlap"},
		{"child outside parent", []span{
			{ID: 0, StartNs: 0, EndNs: 100, Parent: -1},
			{ID: 1, StartNs: 90, EndNs: 110, Parent: 0},
		}, "not inside"},
		{"missing parent", []span{{ID: 0, StartNs: 0, EndNs: 1, Parent: 7}}, "missing parent"},
		{"negative span", []span{{ID: 0, StartNs: 5, EndNs: 1, Parent: -1}}, "ends before"},
	} {
		if _, err := selfTimes(c.spans); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestTracerNestsAndTableZeroFills(t *testing.T) {
	tr := newTracer()
	// Two ops of one text: only the second enters "cube".
	for op := 0; op < 2; op++ {
		tr.op(op, 0)
		root := tr.begin("request")
		_ = tr.in("scan", func() error { return nil })
		if op == 1 {
			_ = tr.in("cube", func() error { time.Sleep(2 * time.Millisecond); return nil })
		}
		tr.end(root)
	}
	if tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("nesting wrong: %+v", tr.spans[:2])
	}
	st, err := newSpanTable(tr.spans)
	if err != nil {
		t.Fatal(err)
	}
	// Median over {0, ≥2 ms}: the op that skipped the layer counts as 0,
	// so a layer's share is of all requests, not of those that entered it.
	var only span
	for _, s := range tr.spans {
		if s.Name == "cube" {
			only = s
		}
	}
	if got, want := st.over("request", "cube"), float64(only.dur().Nanoseconds())/1e6/2; !approx(got, want) {
		t.Errorf("cube over request = %v ms, want %v (half of the one span)", got, want)
	}
	if st.over("request", "absent") != 0 {
		t.Error("a layer nobody entered must read 0")
	}
	if got := st.selfOver("request", "request"); got > st.over("request", "request") {
		t.Errorf("self %v exceeds total %v", got, st.over("request", "request"))
	}
}
