package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mdjoin/internal/optimizer"
	"mdjoin/internal/table"
)

// runConfig is one invocation's settings. setups is fixed at 3 by main;
// it is a field so tests can run one set-up.
type runConfig struct {
	seed        int64
	seconds     float64 // sizes the fixed schedule (sizes.measuredRounds) and caps the loop
	scale       int
	setups      int
	outDir      string
	serverBin   string
	shareWindow time.Duration // mdserve's default, read from the built binary
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports; the final stdout line is its JSON.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	notes    []string // human-readable lines printed before the JSON
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// envNotes records the frozen environment beside every result.
func envNotes(r *result, cfg runConfig) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	procs := os.Getenv("GOMAXPROCS")
	if procs == "" {
		procs = fmt.Sprintf("%d (nproc)", runtime.NumCPU())
	}
	r.notef("env: GOMAXPROCS=%s GOGC=%s share-window=%v (mdserve default) connections=1 closed-loop seed=%d seconds=%g scale=1/%d",
		procs, gogc, cfg.shareWindow, cfg.seed, cfg.seconds, cfg.scale)
}

// loopCap is the wall-clock safety cap of one measured loop.
func (c runConfig) loopCap() time.Duration {
	return time.Duration(capFactor * c.seconds * float64(time.Second))
}

// session is a started, loaded and warmed server with its client.
type session struct {
	srv *child
	cl  *client
	// rowCount is each op key's row_count as answered during warm-up; the
	// measured phase checks every response against it.
	rowCount map[int]int
	// firstBodies holds the first warm-up pass's response per op key, for
	// the oracle comparison made outside every timed interval.
	firstBodies map[int][]byte
}

func (s *session) stop() {
	s.cl.close()
	s.srv.stop()
}

// blame turns a transport or /proc error into the child's death when
// that is its cause: a server that dies mid-run fails the command as
// that, not as a broken pipe.
func (s *session) blame(err error) error {
	if err == nil {
		return nil
	}
	// The error can arrive before the child has been reaped.
	select {
	case <-s.srv.exited:
		return s.srv.alive()
	case <-time.After(time.Second):
		return err
	}
}

// send issues a scheduled op.
func (s *session) send(o op, statsOn bool) (reply, error) {
	r, err := s.cl.send(o, statsOn)
	return r, s.blame(err)
}

// expect sends a request that must answer 200.
func (s *session) expect(method, path string, body []byte) (reply, error) {
	r, err := s.cl.do(method, path, body)
	if err != nil {
		return r, s.blame(err)
	}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("%s %s: status %d: %s", method, path, r.status, firstLine(r.body))
	}
	return r, nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// warmOps are the distinct requests of the workload: every query text,
// and each view read for append_read. Appends are not warmed — they would
// change the table the schedule starts from.
func warmOps(in *inputs) []op {
	var ops []op
	for k, t := range in.texts {
		ops = append(ops, op{kind: opQuery, key: k, text: t})
	}
	if len(in.spec.views) > 0 {
		ops = append(ops, op{kind: opViewWide, key: -2}, op{kind: opViewSmall, key: -3})
	}
	return ops
}

// setUp is everything setup_s covers: child start → ready, the CSV
// upload, view creation with backfill, and a fixed count of warm-up
// passes over every distinct request (filling the plan LRU, the string
// dictionaries and the heap). It is the same deterministic work on every
// call.
func setUp(cfg runConfig, in *inputs) (*session, error) {
	srv, err := startChild(cfg.serverBin, filepath.Join(cfg.outDir, "server-"+in.spec.name+".log"))
	if err != nil {
		return nil, err
	}
	s := &session{srv: srv, cl: newClient(srv.base), rowCount: map[int]int{}, firstBodies: map[int][]byte{}}
	fail := func(err error) (*session, error) {
		s.stop()
		return nil, err
	}
	if _, err := s.expect(http.MethodPut, "/tables/Sales", in.baseCSV); err != nil {
		return fail(err)
	}
	for _, v := range in.spec.views {
		if _, err := s.expect(http.MethodPost, "/views/"+v.name, []byte(v.query())); err != nil {
			return fail(err)
		}
	}
	ops := warmOps(in)
	for pass := 0; pass < in.sz.warmPasses; pass++ {
		for _, o := range ops {
			r, err := s.send(o, false)
			if err != nil {
				return fail(err)
			}
			if r.status != http.StatusOK {
				return fail(fmt.Errorf("warm-up %s %d: status %d: %s", o.kind, o.key, r.status, firstLine(r.body)))
			}
			if pass == 0 {
				s.firstBodies[o.key] = bytes.Clone(r.body)
				n, ok := rowCountOf(r.body)
				if !ok {
					return fail(fmt.Errorf("warm-up %s %d: no row_count in response", o.kind, o.key))
				}
				s.rowCount[o.key] = n
			}
		}
	}
	return s, nil
}

// oracleCatalog decodes the uploaded CSV exactly as the server does, so
// the oracle sees the same values (floats included) the server holds.
func oracleCatalog(in *inputs) (optimizer.Catalog, error) {
	t, err := table.ReadCSV(bytes.NewReader(in.baseCSV))
	if err != nil {
		return nil, err
	}
	return optimizer.Catalog{"Sales": t}, nil
}

// verifyWarm compares the first warm-up answers — every distinct query
// text and both read views — with the Algorithm 3.1 oracle. It returns
// the number of mismatches.
func verifyWarm(r *result, in *inputs, s *session, cat optimizer.Catalog) int {
	bad := 0
	check := func(what string, key int, text string) {
		want, err := oracleAnswer(text, cat)
		if err == nil {
			var got *answer
			if got, err = decodeAnswer(s.firstBodies[key]); err == nil {
				err = checkAnswer(got, want)
			}
		}
		if err != nil {
			bad++
			r.notef("ORACLE MISMATCH %s: %v", what, err)
		}
	}
	for k, t := range in.texts {
		check(fmt.Sprintf("query %d", k), k, t)
	}
	for _, v := range in.spec.views {
		switch v.name {
		case "v_wide":
			check(v.name, -2, v.query())
		case "v_small":
			check(v.name, -3, v.query())
		}
	}
	return bad
}

// sample is one measured operation.
type sample struct {
	kind      opKind
	key       int
	ms        float64 // send → last body byte
	ttfbMs    float64 // send → response headers
	bodyMs    float64 // headers → last body byte
	bytes     int
	rows      int // rows appended (opAppend)
	status    int
	wrongRows bool
}

// block is the loop's state at a block boundary; consecutive blocks give
// the per-slice increments of the slice estimators.
type block struct {
	ops     int
	elapsed float64 // seconds since the loop began
	cpu     float64 // server CPU seconds
	rssMB   float64 // server resident set
}

type measured struct {
	samples   []sample
	blocks    []block // len = completed blocks + 1
	next      int     // schedule index after the last op sent
	truncated bool    // the safety cap cut the schedule short
}

// capFactor times --seconds is the measured loop's safety cap. The
// schedule is a count sized to fill --seconds on the reference box; only
// a server (or a host) more than twice as slow reaches the cap, and the
// run then says so.
const capFactor = 2

// measure runs rounds rounds of the schedule from index from in a closed
// loop: a fixed count of operations, the same on every run and every
// commit, so the table size at each op index never depends on how fast
// the server is. The loop gives up at the first block boundary past
// limit. Checks happen between requests, outside the timed interval of
// each.
func measure(s *session, in *inputs, from, rounds int, limit time.Duration) (*measured, error) {
	m := &measured{next: from}
	per := in.opsPerRound()
	if from+rounds*per > in.limit() {
		return nil, fmt.Errorf("schedule of %d ops cannot hold %d rounds of %d from op %d", in.limit(), rounds, per, from)
	}
	mark := func(t0 time.Time) error {
		cpu, err := s.srv.cpuSeconds()
		var rss float64
		if err == nil {
			rss, err = s.srv.statusMB("VmRSS")
		}
		if err != nil {
			return s.blame(err)
		}
		m.blocks = append(m.blocks, block{ops: len(m.samples), elapsed: time.Since(t0).Seconds(), cpu: cpu, rssMB: rss})
		return nil
	}
	t0 := time.Now()
	if err := mark(t0); err != nil {
		return nil, err
	}
	for b := 0; b < rounds; b++ {
		if time.Since(t0) > limit {
			m.truncated = true
			break
		}
		for j := 0; j < per; j++ {
			o := in.at(m.next)
			m.next++
			r, err := s.send(o, false)
			if err != nil {
				return nil, fmt.Errorf("%s request: %w", o.kind, err)
			}
			sm := sample{
				kind: o.kind, key: o.key, status: r.status, bytes: len(r.body),
				ms: ms(r.sent, r.done), ttfbMs: ms(r.sent, r.first), bodyMs: ms(r.first, r.done),
			}
			if o.kind == opAppend {
				sm.rows = in.sz.deltaRows
			} else if want, ok := s.rowCount[o.key]; ok {
				got, found := rowCountOf(r.body)
				sm.wrongRows = !found || got != want
			}
			m.samples = append(m.samples, sm)
		}
		if err := mark(t0); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// loopNote describes a measured loop, and says loudly when the cap cut it.
func (m *measured) loopNote(rounds int) string {
	n := fmt.Sprintf("%d ops in %.2f s over %d of %d blocks", len(m.samples), m.blocks[len(m.blocks)-1].elapsed, len(m.blocks)-1, rounds)
	if m.truncated {
		n += " — TRUNCATED by the safety cap: this run did less work than the schedule and is not comparable"
	}
	return n
}

func (m *measured) failed() int {
	n := 0
	for _, s := range m.samples {
		if s.status != http.StatusOK || s.wrongRows {
			n++
		}
	}
	return n
}

func (m *measured) byKey(kind opKind, f func(sample) float64) map[int][]float64 {
	out := map[int][]float64{}
	for _, s := range m.samples {
		if s.kind == kind {
			out[s.key] = append(out[s.key], f(s))
		}
	}
	return out
}

func (m *measured) values(kind opKind, f func(sample) float64) []float64 {
	var out []float64
	for _, s := range m.samples {
		if s.kind == kind {
			out = append(out, f(s))
		}
	}
	return out
}

func latency(s sample) float64 { return s.ms }

// perBlock returns, per block, the increments of ops, wall seconds and
// server CPU milliseconds.
func (m *measured) perBlock() (ops, secs, cpuMs []float64) {
	for i := 1; i < len(m.blocks); i++ {
		a, b := m.blocks[i-1], m.blocks[i]
		ops = append(ops, float64(b.ops-a.ops))
		secs = append(secs, b.elapsed-a.elapsed)
		cpuMs = append(cpuMs, (b.cpu-a.cpu)*1000)
	}
	return
}

// sumPerBlock sums f over each block's samples of one kind.
func (m *measured) sumPerBlock(kind opKind, f func(sample) float64) []float64 {
	out := make([]float64, 0, len(m.blocks))
	for i := 1; i < len(m.blocks); i++ {
		sum := 0.0
		for _, s := range m.samples[m.blocks[i-1].ops:m.blocks[i].ops] {
			if s.kind == kind {
				sum += f(s)
			}
		}
		out = append(out, sum)
	}
	return out
}

// runWorkload is the untraced run: the end-to-end metrics.
func runWorkload(cfg runConfig, sp spec) (*result, error) {
	res := &result{Metrics: map[string]metric{}, workload: sp.name}
	envNotes(res, cfg)

	rounds := sp.sz.measuredRounds(cfg.seconds)
	in, err := makeInputs(sp, cfg.seed, cfg.scale, rounds)
	if err != nil {
		return nil, err
	}
	cat, err := oracleCatalog(in)
	if err != nil {
		return nil, err
	}

	// Set up several times and report the median: one set-up is a few
	// seconds of mostly single-shot work (process start, one upload), the
	// noisiest thing the benchmark times.
	var setupS []float64
	var s *session
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		if s, err = setUp(cfg, in); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.stop()

	mismatches := verifyWarm(res, in, s, cat)
	// The oracle's garbage is the benchmark's, not the server's, but both
	// share the box: return it before the timed loop.
	runtime.GC()

	m, err := measure(s, in, 0, rounds, cfg.loopCap())
	if err != nil {
		return nil, err
	}
	peak, err := s.srv.statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	var rss []float64
	for _, b := range m.blocks {
		rss = append(rss, b.rssMB)
	}
	if len(in.spec.views) > 0 {
		mismatches += verifyViews(res, in, s, cat, m.next/5)
	}

	res.Attempted = len(m.samples)
	res.Failed = m.failed() + mismatches
	res.Correct = res.Failed == 0

	ops, secs, cpuMs := m.perBlock()
	rate, cost := quietRate(ops, secs), quietCost(cpuMs, ops)
	if len(in.deltas) > 0 {
		// Appends grow the table, so every slice is slower than the one
		// before and a quartile of slices would report one early slice.
		// The schedule is a fixed count: the whole run is the same work
		// on every run, and its totals are the estimate.
		rate, cost = sliceRatios(ops, secs, 1)[0], sliceRatios(cpuMs, ops, 1)[0]
	}
	res.set("setup_s", median(setupS), "s")
	res.set("query_p50_ms", typical(m.byKey(opQuery, latency)), "ms")
	res.set("ops_per_s", rate, "1/s")
	res.set("server_cpu_ms_per_op", cost, "ms")
	// The midmean, as for latencies and for the same reason: on a growing
	// table the samples trend, and their median is the mid-run sample.
	res.set("server_rss_mb", midmean(rss), "MB")
	res.notef("server resident set: midmean %.1f MB (median %.1f) over %d samples, peak (VmHWM) %.1f MB", midmean(rss), median(rss), len(rss), peak)

	res.notef("set-ups: %.3f s", setupS)
	res.notef("ops/s per slice: %.2f", sliceRatios(ops, secs, numSlices))
	res.notef("server CPU ms/op per slice: %.2f", sliceRatios(cpuMs, ops, numSlices))
	res.notef("whole run: %.3f ops/s, %.3f server CPU ms/op", sliceRatios(ops, secs, 1)[0], sliceRatios(cpuMs, ops, 1)[0])
	res.notef("measured: %s; %d failed ops, %d oracle mismatches", m.loopNote(rounds), m.failed(), mismatches)
	clientNotes(res, in, m)
	return res, nil
}

// clientNotes prints the per-kind latencies of a measured loop — the
// numbers the traced run reports as client.* layer metrics.
func clientNotes(res *result, in *inputs, m *measured) {
	for k := opKind(0); k < numOpKinds; k++ {
		xs := m.values(k, latency)
		if len(xs) == 0 {
			continue
		}
		res.notef("  %-10s n=%-5d typical %.3f ms  p95 %.3f ms  mean %.3f ms", k, len(xs),
			typical(m.byKey(k, latency)), percentile(xs, 0.95), mean(xs))
	}
}

// verifyViews compares all three views, after cycles appends, with a
// batch re-evaluation over base + every applied delta. A view's base is
// frozen when it is created, so the oracle takes its base values from the
// original relation (Sales0) and aggregates over the grown one.
func verifyViews(res *result, in *inputs, s *session, cat optimizer.Catalog, cycles int) int {
	base := cat["Sales"]
	grown := &table.Table{Schema: base.Schema, Rows: append([]table.Row(nil), base.Rows...)}
	for c := 0; c < cycles; c++ {
		d, err := table.ReadCSV(bytes.NewReader(in.deltas[c]))
		if err != nil {
			res.notef("ORACLE: delta %d: %v", c, err)
			return 1
		}
		grown.Rows = append(grown.Rows, d.Rows...)
	}
	full := optimizer.Catalog{"Sales0": base, "Sales": grown}
	bad := 0
	for _, v := range in.spec.views {
		err := func() error {
			r, err := s.expect(http.MethodGet, "/views/"+v.name, nil)
			if err != nil {
				return err
			}
			got, err := decodeAnswer(r.body)
			if err != nil {
				return err
			}
			want, err := oracleAnswer(v.oracleQuery(), full)
			if err != nil {
				return err
			}
			return checkAnswer(got, want)
		}()
		if err != nil {
			bad++
			res.notef("ORACLE MISMATCH view %s after %d appends: %v", v.name, cycles, err)
		}
	}
	return bad
}
