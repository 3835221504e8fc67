package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"mdjoin/internal/agg"
	"mdjoin/internal/core"
	"mdjoin/internal/expr"
	"mdjoin/internal/optimizer"
	"mdjoin/internal/server"
	"mdjoin/internal/sqlext"
	"mdjoin/internal/table"
)

// layers replays a workload's first operations inside the benchmark
// process, from outside every layer: once through the server's handler
// (server.New(cfg).Handler() behind a ResponseRecorder), and once
// decomposed into the public calls the handler makes — sqlext.Parse,
// Translate, optimizer.Optimize, then per MD-join node Base.Execute,
// core.Compile and Bundle.Run — each wrapped in a span. Nothing inside
// the program is instrumented; a layer's time is what its public entry
// points cost when called the way the server calls them.
type layers struct {
	in *inputs
	tr *tracer

	srv    *server.Server       // the in-process server
	cat    optimizer.Catalog    // the replay's own catalog
	base   *table.Table         // Sales as uploaded, with its chunk mirror
	shared *core.SharedExecutor // for the solo share-window wait
	prep   map[int]*prepared    // text key → plan, as the server's LRU holds it
	views  map[string]*liveView // the replay's own materializations
	cube   map[int]bool         // text keys whose base is cube-like
	work   []mdjWork            // MD-joins of the op being replayed

	readCSVSec    float64
	heapPerByte   float64
	uploadSec     float64
	viewCreateSec float64
	backfillSec   float64
}

// prepared mirrors sqlext.Prepared, whose WITH members are private.
type prepared struct {
	plan optimizer.Plan
	with []withMember
}

type withMember struct {
	name string
	p    *prepared
}

// liveView mirrors the server's view: one incrementalized MD-join and the
// plan around it.
type liveView struct {
	plan optimizer.Plan
	mdj  *optimizer.MDJoin
	inc  *core.Incremental
}

// mdjWork is one evaluated MD-join node, kept so the same node can be
// re-run through the SharedExecutor and its base re-indexed after the
// op's span tree has closed.
type mdjWork struct {
	b, r   *table.Table
	phases []core.Phase
	opt    core.Options
}

// newLayers builds the in-process server the way cmd/mdserve does from
// its default flags: the zero Config (server.New fills in the defaults the
// flags repeat) plus the share window, whose default is the binary's own
// (shareWindowDefault).
func newLayers(in *inputs, tr *tracer, shareWindow time.Duration) *layers {
	return &layers{
		in: in, tr: tr,
		srv:    server.New(server.Config{ShareWindow: shareWindow}),
		shared: core.NewSharedExecutor(shareWindow, 0),
		prep:   map[int]*prepared{},
		views:  map[string]*liveView{},
		cube:   map[int]bool{},
	}
}

// handle drives one request through the in-process handler inside a span.
func (l *layers) handle(name, method, path string, body []byte) error {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	id := l.tr.begin(name)
	l.srv.Handler().ServeHTTP(rec, req)
	l.tr.end(id)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s %s: status %d: %s", method, path, rec.Code, firstLine(rec.Body.Bytes()))
	}
	return nil
}

func timed(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// load does in-process what set-up does over the socket: decode and
// register Sales, create the views, and pass once over every text so the
// plan LRU is in the state the child's was when its traced ops began.
func (l *layers) load() error {
	csv := l.in.baseCSV
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var err error
	l.readCSVSec, err = timed(func() error {
		var e error
		l.base, e = table.ReadCSV(bytes.NewReader(csv))
		return e
	})
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	l.heapPerByte = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(csv))
	l.cat = optimizer.Catalog{"Sales": l.base}

	if l.uploadSec, err = timed(func() error {
		return l.handle("handler.upload", http.MethodPut, "/tables/Sales", csv)
	}); err != nil {
		return err
	}
	// From here on the in-process server and the decomposed replay read
	// one table, as the child holds one: a second copy would double the
	// heap the collector marks and charge it to every layer.
	l.srv.RegisterTable("Sales", l.base)
	for _, v := range l.in.spec.views {
		sec, err := timed(func() error {
			return l.handle("handler.view_create", http.MethodPost, "/views/"+v.name, []byte(v.query()))
		})
		if err != nil {
			return err
		}
		l.viewCreateSec += sec
		if err := l.createView(v); err != nil {
			return err
		}
	}
	// Warm-up spans are not part of the trace.
	scratch := newTracer()
	real := l.tr
	l.tr = scratch
	defer func() { l.tr = real }()
	for k, text := range l.in.texts {
		if err := l.handle("handler.warm", http.MethodPost, "/query", []byte(text)); err != nil {
			return err
		}
		q, err := sqlext.Parse(text)
		if err != nil {
			return err
		}
		if l.prep[k], err = front(scratch, q); err != nil {
			return err
		}
	}
	return nil
}

// createView builds the replay's own materialization the way the
// server's handleCreateView does.
func (l *layers) createView(v viewDef) error {
	p, err := sqlext.Prepare(v.query())
	if err != nil {
		return err
	}
	plan := p.Plan()
	mdjs := optimizer.CollectMDJoins(plan)
	if len(mdjs) != 1 {
		return fmt.Errorf("view %s: %d MD-joins, want 1", v.name, len(mdjs))
	}
	mdj := mdjs[0]
	base, err := mdj.Base.Execute(l.cat)
	if err != nil {
		return err
	}
	opt := mdj.Opt
	if opt.RAlias == "" {
		opt.RAlias = mdj.DetailName
	}
	detail := l.cat["Sales"]
	var inc *core.Incremental
	sec, err := timed(func() error {
		var e error
		if inc, e = core.NewIncremental(base, detail.Schema, mdj.Phases, opt, core.IncrementalConfig{}); e != nil {
			return e
		}
		return inc.Append(detail.Rows)
	})
	if err != nil {
		return err
	}
	l.backfillSec += sec
	l.views[v.name] = &liveView{plan: plan, mdj: mdj, inc: inc}
	return nil
}

// front is Prepare's translate and optimize stages, WITH members first.
func front(tr *tracer, q *sqlext.Query) (*prepared, error) {
	p := &prepared{}
	for _, cte := range q.With {
		cp, err := front(tr, cte.Query)
		if err != nil {
			return nil, err
		}
		p.with = append(p.with, withMember{name: cte.Name, p: cp})
	}
	var plan optimizer.Plan
	if err := tr.in("sqlext.translate", func() (e error) { plan, e = sqlext.Translate(q); return }); err != nil {
		return nil, err
	}
	_ = tr.in("optimizer.optimize", func() error { p.plan = optimizer.Optimize(plan); return nil })
	return p, nil
}

// replayQuery decomposes one query. The front end runs only when the
// server missed its plan cache on this op, so on cache-hit workloads
// parse, translate and optimize cost what the server paid for them:
// nothing.
func (l *layers) replayQuery(o op, cached bool) error {
	l.work = l.work[:0]
	root := l.tr.begin("replay.query")
	p := l.prep[o.key]
	if !cached || p == nil {
		var q *sqlext.Query
		err := l.tr.in("sqlext.parse", func() (e error) { q, e = sqlext.Parse(o.text); return })
		if err == nil {
			p, err = front(l.tr, q)
		}
		if err != nil {
			l.tr.end(root)
			return err
		}
		l.prep[o.key] = p
	}
	_, err := l.exec("exec", o.key, p, l.cat)
	l.tr.end(root)
	if err != nil {
		return err
	}

	// Outside the request's tree: the same MD-joins once more through the
	// SharedExecutor (one bundle, so the difference to Bundle.Run is the
	// solo share-window wait), and the index build over each base.
	for _, w := range l.work {
		w.opt.Stats = &core.Stats{}
		bu, err := core.Compile(w.b, w.r, w.phases, w.opt)
		if err != nil {
			return err
		}
		if err := l.tr.in("core.shared_run", func() (e error) { _, e = l.shared.Run(bu); return }); err != nil {
			return err
		}
		var cols []int
		for j, name := range w.b.Schema.Names() {
			if w.r.Schema.ColIndex(name) >= 0 {
				cols = append(cols, j)
			}
		}
		_ = l.tr.in("table.index_build", func() error { table.BuildIndexOrdinals(w.b, cols); return nil })
	}
	return nil
}

// exec is Prepared.ExecContext taken apart: WITH members extend the
// catalog, then every MD-join node — innermost first — is evaluated
// through its public stages and replaced by its result, and what remains
// (Project, Sort, Limit) executes over the literals. The span's self time
// is therefore everything ExecContext does around the MD-joins.
func (l *layers) exec(name string, key int, p *prepared, cat optimizer.Catalog) (*table.Table, error) {
	id := l.tr.begin(name)
	defer l.tr.end(id)
	if len(p.with) > 0 {
		ext := make(optimizer.Catalog, len(cat)+len(p.with))
		for k, v := range cat {
			ext[k] = v
		}
		for _, w := range p.with {
			t, err := l.exec("exec.with", key, w.p, ext)
			if err != nil {
				return nil, err
			}
			ext[w.name] = t
		}
		cat = ext
	}
	plan := p.plan
	for {
		mdjs := optimizer.CollectMDJoins(plan)
		if len(mdjs) == 0 {
			break
		}
		// Pre-order: the last node has no MD-join below it.
		m := mdjs[len(mdjs)-1]
		out, err := l.evalMDJoin(key, m, cat)
		if err != nil {
			return nil, err
		}
		plan = optimizer.ReplacePlanNode(plan, m, &optimizer.Literal{Table: out, Label: "replayed"})
	}
	return plan.Execute(cat)
}

func (l *layers) evalMDJoin(key int, m *optimizer.MDJoin, cat optimizer.Catalog) (*table.Table, error) {
	baseSpan := "engine.base_values"
	optimizer.Walk(m.Base, func(n optimizer.Plan) {
		if bv, ok := n.(*optimizer.BaseValues); ok && bv.Op != "group" {
			baseSpan = "cube.base_values"
			l.cube[key] = true
		}
	})
	var b *table.Table
	if err := l.tr.in(baseSpan, func() (e error) { b, e = m.Base.Execute(cat); return }); err != nil {
		return nil, err
	}
	r, err := m.Detail.Execute(cat)
	if err != nil {
		return nil, err
	}
	opt := m.Opt
	if opt.RAlias == "" {
		opt.RAlias = m.DetailName
	}
	// Stats on, as in the socket run this is lined up with (?stats=1).
	opt.Stats = &core.Stats{}
	var bu *core.Bundle
	if err := l.tr.in("core.compile", func() (e error) { bu, e = core.Compile(b, r, m.Phases, opt); return }); err != nil {
		return nil, err
	}
	var out *table.Table
	if err := l.tr.in("core.run", func() (e error) { out, e = bu.Run(); return }); err != nil {
		return nil, err
	}
	l.work = append(l.work, mdjWork{b: b, r: r, phases: m.Phases, opt: opt})
	return out, nil
}

// replayAppend decomposes an append: decode the delta, fold it into each
// view, then extend the replay's table copy-on-write as the server does
// (that extension is the handler's self time, not a layer call).
func (l *layers) replayAppend(o op) error {
	root := l.tr.begin("replay.append")
	var delta *table.Table
	err := l.tr.in("table.read_csv", func() (e error) { delta, e = table.ReadCSV(bytes.NewReader(o.body)); return })
	for _, v := range l.in.spec.views {
		if err != nil {
			break
		}
		err = l.tr.in("core.incremental_append."+v.name, func() error { return l.views[v.name].inc.Append(delta.Rows) })
	}
	l.tr.end(root)
	if err != nil {
		return err
	}
	old := l.cat["Sales"]
	l.cat["Sales"] = &table.Table{Schema: old.Schema, Rows: append(old.Rows[:old.Len():old.Len()], delta.Rows...)}
	return nil
}

// replayViewRead decomposes a v_wide read: snapshot, then graft the
// snapshot over the MD-join and execute the rest of the plan.
func (l *layers) replayViewRead() error {
	v := l.views["v_wide"]
	root := l.tr.begin("replay.view_wide")
	defer l.tr.end(root)
	var snap *table.Table
	if err := l.tr.in("core.incremental_snapshot", func() (e error) { snap, e = v.inc.Snapshot(); return }); err != nil {
		return err
	}
	return l.tr.in("optimizer.graft_execute", func() error {
		grafted := optimizer.ReplacePlanNode(v.plan, v.mdj, &optimizer.Literal{Table: snap, Label: "view v_wide"})
		_, err := grafted.Execute(l.cat)
		return err
	})
}

// replay runs schedule op i at both levels.
func (l *layers) replay(i int, cached bool) error {
	o := l.in.at(i)
	l.tr.op(i, o.key)
	switch o.kind {
	case opQuery:
		if err := l.handle("handler.query", http.MethodPost, "/query?stats=1", []byte(o.text)); err != nil {
			return err
		}
		return l.replayQuery(o, cached)
	case opAppend:
		if err := l.handle("handler.append", http.MethodPut, "/tables/Sales/append", o.body); err != nil {
			return err
		}
		return l.replayAppend(o)
	case opViewWide:
		if err := l.handle("handler.view_wide", http.MethodGet, "/views/v_wide", nil); err != nil {
			return err
		}
		return l.replayViewRead()
	default:
		return l.handle("handler.view_small", http.MethodGet, "/views/v_small", nil)
	}
}

func (l *layers) viewSizeBytes() int64 {
	var n int64
	for _, v := range l.views {
		n += v.inc.SizeBytes()
	}
	return n
}

// microPredicate is the pushdown shape the scan workloads use: a float
// compare, an int compare and a dictionary-string compare.
const microPredicate = "select state from Sales where sale > 500.5 and year >= 1996 and state <> 'NY' group by state"

// micro times the two kernels under the detail scan directly over the
// uploaded table's prebuilt chunks: CompileChunk + FilterChunk of the
// pushdown predicate, and FoldColumn of sum and avg over the sale column.
// Each repeats until it has run for minMicro.
func (l *layers) micro() (filterNsPerRow, foldNsPerRow float64, err error) {
	const minMicro = 100 * time.Millisecond
	chunks := l.base.Chunks(table.ChunkSize)
	q, err := sqlext.Parse(microPredicate)
	if err != nil {
		return 0, 0, err
	}
	sel := make([]int32, table.ChunkSize)
	fill := func(n int) []int32 {
		s := sel[:n]
		for i := range s {
			s[i] = int32(i)
		}
		return s
	}

	rows := 0
	t0 := time.Now()
	for time.Since(t0) < minMicro {
		bind := expr.NewBinding()
		slot := bind.AddRel(l.base.Schema, "Sales", "R")
		cc, err := expr.CompileChunk(q.Where, bind, slot)
		if err != nil {
			return 0, 0, err
		}
		for _, ch := range chunks {
			cc.FilterChunk(ch, fill(ch.Len()))
			rows += ch.Len()
		}
	}
	filterNsPerRow = float64(time.Since(t0).Nanoseconds()) / float64(max(rows, 1))

	saleOrd := l.base.Schema.ColIndex("sale")
	rows = 0
	t0 = time.Now()
	for time.Since(t0) < minMicro {
		sum, avg := agg.MustLookup("sum").NewState(), agg.MustLookup("avg").NewState()
		for _, ch := range chunks {
			s := fill(ch.Len())
			agg.FoldColumn(sum, ch.Col(saleOrd), s)
			agg.FoldColumn(avg, ch.Col(saleOrd), s)
			rows += 2 * ch.Len()
		}
	}
	foldNsPerRow = float64(time.Since(t0).Nanoseconds()) / float64(max(rows, 1))
	return filterNsPerRow, foldNsPerRow, nil
}

// hostCalib times a fixed pure-CPU loop. It runs before and after a
// traced run: when a layer number moves and this moved with it, the host
// drifted, not the program.
func hostCalib() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var calibSink uint64
