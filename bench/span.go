package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of
// the span whose interval contains this one (-1 for a root); spans of one
// benchmark operation share OpID, which is how the separate replays of an
// operation — over the socket, through the in-process handler, and
// decomposed into layer calls — are lined up.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	// Key groups spans of equal work (the request text) for the
	// per-text centre (typical); it is not part of the trace contract.
	Key int `json:"key"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer records spans in memory. All traced code is sequential, so the
// enclosing span is the top of a stack.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	opID  int
	key   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op sets the operation id and text key stamped on spans begun from now.
func (t *tracer) op(id, key int) { t.opID, t.key = id, key }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, OpID: t.opID, Key: t.key})
	t.stack = append(t.stack, id)
	t.spans[id].StartNs = time.Since(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d (%s) ended out of order", id, t.spans[id].Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// in runs f inside a span.
func (t *tracer) in(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// add records an already-measured span (the socket client times its own
// phases) under the given parent.
func (t *tracer) add(name string, start, end time.Time, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, OpID: t.opID, Key: t.key,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// selfTimes returns each span's duration minus the part its direct
// children cover. A child that leaves its parent's interval, or two
// siblings that overlap, mean the recording is not a tree of nested
// intervals and the subtraction would be wrong; both are errors.
func selfTimes(spans []span) (map[int]time.Duration, error) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return nil, fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		d := s.dur()
		for i, k := range kids {
			if i > 0 && k.StartNs < kids[i-1].EndNs {
				return nil, fmt.Errorf("spans %d (%s) and %d (%s) overlap under parent %d",
					kids[i-1].ID, kids[i-1].Name, k.ID, k.Name, s.ID)
			}
			d -= k.dur()
		}
		self[s.ID] = d
	}
	return self, nil
}

// spanTable aggregates a trace per operation and span name.
type spanTable struct {
	total map[string]map[int]float64 // name → op id → Σ duration, ms
	self  map[string]map[int]float64 // name → op id → Σ self time, ms
	opKey map[int]int                // op id → text key
}

func newSpanTable(spans []span) (*spanTable, error) {
	self, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	st := &spanTable{total: map[string]map[int]float64{}, self: map[string]map[int]float64{}, opKey: map[int]int{}}
	for _, s := range spans {
		if st.total[s.Name] == nil {
			st.total[s.Name] = map[int]float64{}
			st.self[s.Name] = map[int]float64{}
		}
		st.total[s.Name][s.OpID] += float64(s.dur().Nanoseconds()) / 1e6
		st.self[s.Name][s.OpID] += float64(self[s.ID].Nanoseconds()) / 1e6
		st.opKey[s.OpID] = s.Key
	}
	return st, nil
}

// over is the typical (per-text midmean, averaged over texts) time an
// operation spends in spans called name, in milliseconds, taken over the
// operations that have a span called root. An operation that never
// entered name counts as 0, so the layers of one root add up to it; a
// layer no operation entered reads 0.
func (st *spanTable) over(root, name string) float64 {
	return st.typicalOver(root, st.total[name])
}

// selfOver is over for self times.
func (st *spanTable) selfOver(root, name string) float64 {
	return st.typicalOver(root, st.self[name])
}

func (st *spanTable) typicalOver(root string, perOp map[int]float64) float64 {
	ops := st.total[root]
	if len(ops) == 0 || len(perOp) == 0 {
		return 0
	}
	byKey := map[int][]float64{}
	for op := range ops {
		k := st.opKey[op]
		byKey[k] = append(byKey[k], perOp[op])
	}
	return typical(byKey)
}

func writeTrace(path string, meta map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
