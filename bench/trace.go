package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
)

// traceOps is how many schedule ops the traced run repeats at each level
// (socket with ?stats=1, in-process handler, decomposed layer calls): a
// fixed count, so every count metric repeats exactly. It is six rounds of
// a workload's texts, one full pass for plan_heavy (every text misses the
// plan LRU once), two rounds of cycles for append_read.
func traceOps(in *inputs) int {
	switch {
	case len(in.deltas) > 0:
		return traceRounds * in.opsPerRound()
	case len(in.texts) > 64:
		return len(in.texts)
	default:
		return 6 * len(in.texts)
	}
}

// traceRounds is append_read's traced rounds of cycles.
const traceRounds = 2

// serverCounts sums the core.Stats trees the server returned with
// ?stats=1: program-reported numbers, labelled so in the README.
type serverCounts struct {
	queries, cacheHits, shed            int
	tuples, probes, pushIn, pushOut     int
	boxed                               int64
	prebuilt, transposed                int
	scanNanos, assembleNanos, respBytes int64
}

func (c *serverCounts) add(a *answer, bodyLen int) {
	c.queries++
	c.respBytes += int64(bodyLen)
	if a.CachedPlan {
		c.cacheHits++
	}
	s := a.Stats
	if s == nil {
		return
	}
	c.tuples += s.TuplesScanned
	c.prebuilt += s.ChunksPrebuilt
	c.transposed += s.ChunksTransposed
	c.scanNanos += s.ScanNanos
	c.assembleNanos += s.AssembleNanos
	for _, p := range s.Phases {
		c.probes += p.IndexProbes
		c.pushIn += p.PushdownIn
		c.pushOut += p.PushdownOut
		c.boxed += p.BoxedElems
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceWorkload is the traced run: shorter than the untraced one, it
// reports the per-layer metrics and writes out/trace-<workload>.json.
// Every layer metric is printed on every workload; one the workload's
// traffic never enters reads 0.
func traceWorkload(cfg runConfig, sp spec) (*result, error) {
	res := &result{Metrics: map[string]metric{}, workload: sp.name}
	envNotes(res, cfg)
	// The untraced loop after the traced ops is half an untraced run's.
	rounds := sp.sz.measuredRounds(cfg.seconds / 2)
	in, err := makeInputs(sp, cfg.seed, cfg.scale, traceRounds+rounds)
	if err != nil {
		return nil, err
	}
	n := traceOps(in)
	tr := newTracer()
	calibBefore := hostCalib()

	// ---- over the socket: n traced ops, then an untraced loop.
	s, err := setUp(cfg, in)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	var counts serverCounts
	cached := make([]bool, n)
	failed := 0
	// Where appends grow the table, no later untraced query is comparable
	// with a traced one, so each traced query gets an untraced twin at the
	// same table size, before it and after it in turn.
	twins := map[int][]float64{}
	twin := func(o op) error {
		r, err := s.send(o, false)
		twins[o.key] = append(twins[o.key], ms(r.sent, r.done))
		return err
	}
	for i := 0; i < n; i++ {
		o := in.at(i)
		tr.op(i, o.key)
		twinned := o.kind == opQuery && len(in.deltas) > 0
		if twinned && i/5%2 == 0 {
			if err := twin(o); err != nil {
				return nil, err
			}
		}
		r, err := s.send(o, true)
		if err != nil {
			return nil, err
		}
		root := tr.add("socket."+o.kind.String(), r.sent, r.done, -1)
		tr.add("client.ttfb", r.sent, r.first, root)
		tr.add("client.body_read", r.first, r.done, root)
		switch {
		case r.status == http.StatusTooManyRequests:
			counts.shed++
			failed++
		case r.status != http.StatusOK:
			failed++
		case o.kind == opQuery:
			a, err := decodeAnswer(r.body)
			if err != nil || a.RowCount != s.rowCount[o.key] {
				failed++
				break
			}
			counts.add(a, len(r.body))
			cached[i] = a.CachedPlan
		}
		if twinned && i/5%2 == 1 {
			if err := twin(o); err != nil {
				return nil, err
			}
		}
	}
	// The socket's own cost: a request that does no work.
	var rtts []float64
	for i := 0; i < 100; i++ {
		r, err := s.expect(http.MethodGet, "/healthz", nil)
		if err != nil {
			return nil, err
		}
		rtts = append(rtts, ms(r.sent, r.done))
	}
	rtt := median(rtts)
	m, err := measure(s, in, n, rounds, cfg.loopCap()/2)
	if err != nil {
		return nil, err
	}
	s.stop()
	runtime.GC()

	// ---- in process: the same n ops through the handler and decomposed.
	lay := newLayers(in, tr, cfg.shareWindow)
	tr.op(-1, 0)
	if err := lay.load(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := lay.replay(i, cached[i]); err != nil {
			return nil, fmt.Errorf("replaying op %d: %w", i, err)
		}
	}
	filterNs, foldNs, err := lay.micro()
	if err != nil {
		return nil, err
	}
	calibAfter := hostCalib()

	st, err := newSpanTable(tr.spans)
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(cfg.outDir, "trace-"+sp.name+".json")
	meta := map[string]any{"workload": sp.name, "seed": cfg.seed, "ops": n, "scale": cfg.scale}
	if err := writeTrace(tracePath, meta, tr.spans); err != nil {
		return nil, err
	}

	res.Attempted = n + len(m.samples)
	res.Failed = failed + m.failed()
	res.Correct = res.Failed == 0

	const rq, ra, rv = "socket.query", "socket.append", "socket.view_wide"
	perQuery := func(name string) float64 { return st.over(rq, name) }

	// ---- client.*: what the socket shows.
	q := m.values(opQuery, latency)
	res.set("client.query_p95_ms", percentile(q, 0.95), "ms")
	res.set("client.query_mean_ms", mean(q), "ms")
	res.set("client.ttfb_p50_ms", typical(m.byKey(opQuery, func(s sample) float64 { return s.ttfbMs })), "ms")
	res.set("client.body_read_p50_ms", typical(m.byKey(opQuery, func(s sample) float64 { return s.bodyMs })), "ms")
	res.set("client.response_bytes_per_op", ratio(float64(counts.respBytes), float64(counts.queries)), "B")
	res.set("client.host_calib_ms", (calibBefore+calibAfter)/2, "ms")
	untraced := typical(m.byKey(opQuery, latency))
	if len(twins) > 0 {
		untraced = typical(twins)
	}
	res.set("client.trace_overhead_pct", 100*ratio(perQuery(rq)-untraced, untraced), "%")
	// Four end-to-end numbers that only some workloads produce, so they
	// cannot be gated on all four (NOISE.md): reported here instead.
	res.set("client.response_mb_per_s", quietRate(
		m.sumPerBlock(opQuery, func(s sample) float64 { return float64(s.bytes) / 1e6 }),
		m.sumPerBlock(opQuery, func(s sample) float64 { return s.bodyMs / 1e3 })), "MB/s")
	res.set("client.append_p50_ms", orZero(median(m.values(opAppend, latency))), "ms")
	res.set("client.append_rows_per_s", orZero(quietRate(
		m.sumPerBlock(opAppend, func(s sample) float64 { return float64(s.rows) }),
		m.sumPerBlock(opAppend, func(s sample) float64 { return s.ms / 1e3 }))), "rows/s")
	res.set("client.view_read_p50_ms", orZero(median(m.values(opViewWide, latency))), "ms")

	// ---- server.*: transport is measured, not inferred: the round trip
	// of a request that does nothing plus the time to read the body.
	transport := rtt + perQuery("client.body_read")
	handlerQ, replayQ := perQuery("handler.query"), perQuery("replay.query")
	res.set("server.transport_ms", transport, "ms")
	res.set("server.handler_query_ms", handlerQ, "ms")
	res.set("server.handler_self_ms", handlerQ-replayQ, "ms")
	res.set("server.plan_cache_hit_share", ratio(float64(counts.cacheHits), float64(counts.queries)), "ratio")
	folds := 0.0
	for _, v := range sp.views {
		folds += st.over(ra, "core.incremental_append."+v.name)
	}
	res.set("server.append_handler_ms", st.over(ra, "handler.append"), "ms")
	res.set("server.append_self_ms", st.over(ra, "handler.append")-st.over(ra, "table.read_csv")-folds, "ms")
	res.set("server.view_read_handler_ms", st.over(rv, "handler.view_wide"), "ms")
	res.set("server.view_read_self_ms", st.over(rv, "handler.view_wide")-st.over(rv, "replay.view_wide"), "ms")
	res.set("server.upload_handler_s", lay.uploadSec, "s")
	res.set("server.view_create_s", lay.viewCreateSec, "s")
	res.set("server.shed_share", ratio(float64(counts.shed), float64(n)), "ratio")

	// ---- sqlext / optimizer / engine / cube: per-query contributions.
	res.set("sqlext.parse_us", 1000*perQuery("sqlext.parse"), "us")
	res.set("sqlext.translate_us", 1000*perQuery("sqlext.translate"), "us")
	res.set("optimizer.optimize_us", 1000*perQuery("optimizer.optimize"), "us")
	post := st.selfOver(rq, "exec") + st.selfOver(rq, "exec.with")
	res.set("optimizer.post_ms", post, "ms")
	res.set("optimizer.graft_execute_ms", st.over(rv, "optimizer.graft_execute"), "ms")
	res.set("engine.base_values_ms", perQuery("engine.base_values"), "ms")
	res.set("cube.base_values_ms", perQuery("cube.base_values"), "ms")
	cubeLat := map[int][]float64{}
	for _, x := range tr.spans {
		if x.Name == rq && lay.cube[x.Key] {
			cubeLat[x.Key] = append(cubeLat[x.Key], float64(x.dur().Nanoseconds())/1e6)
		}
	}
	res.set("cube.query_p50_ms", orZero(typical(cubeLat)), "ms")

	// ---- core
	nq := float64(counts.queries)
	res.set("core.compile_us", 1000*perQuery("core.compile"), "us")
	res.set("core.run_ms", perQuery("core.run"), "ms")
	res.set("core.scan_ms", ratio(float64(counts.scanNanos)/1e6, nq), "ms")
	res.set("core.assemble_ms", ratio(float64(counts.assembleNanos)/1e6, nq), "ms")
	res.set("core.scan_ns_per_tuple", ratio(float64(counts.scanNanos), float64(counts.tuples)), "ns")
	res.set("core.share_window_wait_ms", perQuery("core.shared_run")-perQuery("core.run"), "ms")
	res.set("core.tuples_scanned_per_op", ratio(float64(counts.tuples), nq), "count")
	res.set("core.index_probes_per_op", ratio(float64(counts.probes), nq), "count")
	res.set("core.pushdown_selectivity", ratio(float64(counts.pushOut), float64(counts.pushIn)), "ratio")
	res.set("core.boxed_elems", float64(counts.boxed), "count")
	res.set("core.chunks_prebuilt_share", ratio(float64(counts.prebuilt), float64(counts.prebuilt+counts.transposed)), "ratio")
	perRow := 1000 / float64(max(in.sz.deltaRows, 1)) // ms per delta → µs per row
	res.set("core.incremental_append_us_per_row.subtractable",
		perRow*(st.over(ra, "core.incremental_append.v_small")+st.over(ra, "core.incremental_append.v_wide"))/2, "us")
	res.set("core.incremental_append_us_per_row.holistic", perRow*st.over(ra, "core.incremental_append.v_median"), "us")
	res.set("core.incremental_snapshot_ms", st.over(rv, "core.incremental_snapshot"), "ms")
	res.set("core.view_size_bytes", float64(lay.viewSizeBytes()), "B")
	res.set("core.incremental_backfill_s", lay.backfillSec, "s")

	// ---- table / expr / agg
	res.set("table.read_csv_mb_per_s", ratio(float64(len(in.baseCSV))/1e6, lay.readCSVSec), "MB/s")
	res.set("table.heap_bytes_per_csv_byte", lay.heapPerByte, "ratio")
	res.set("table.index_build_ms", perQuery("table.index_build"), "ms")
	res.set("expr.filter_chunk_ns_per_row", filterNs, "ns")
	res.set("agg.fold_column_ns_per_row", foldNs, "ns")

	// The replay's own check: measured transport plus the in-process
	// handler should come to the socket span, and the handler's stages to
	// the handler. How far off they are is how far the replay can be
	// trusted on this workload.
	stages := perQuery("sqlext.parse") + perQuery("sqlext.translate") + perQuery("optimizer.optimize") + post +
		perQuery("engine.base_values") + perQuery("cube.base_values") + perQuery("core.compile") + perQuery("core.run")
	sum := transport + (handlerQ - replayQ) + stages
	res.notef("trace: %d ops at three levels, %d spans → %s", n, len(tr.spans), tracePath)
	res.notef("query layers: transport %.3f + handler self %.3f + stages %.3f = %.3f ms, %.1f %% of the socket span %.3f ms",
		transport, handlerQ-replayQ, stages, sum, 100*ratio(sum, perQuery(rq)), perQuery(rq))
	res.notef("host calibration loop: %.2f ms before, %.2f ms after; null-request round trip %.3f ms", calibBefore, calibAfter, rtt)
	res.notef("untraced loop: %s; %d failed ops", m.loopNote(rounds), res.Failed)
	clientNotes(res, in, m)
	return res, nil
}

// orZero maps the NaN of "no samples" to 0: a layer metric of traffic the
// workload does not have.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
