package core

import (
	"fmt"

	"mdjoin/internal/agg"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// Columnar chunk executor: the inner loop of the detail scan.
//
// Every scan driver slices R into fixed-size batches and hands each one to
// batchDriver.processBatch. The executor views the batch as a table.Chunk
// of typed columns — for detail tables built through table.Builder, the
// table's cached columnar mirror with no transpose at all; otherwise a
// transpose of just the needed ordinals — and runs the per-phase pushdown
// filter, equi-key evaluation, and aggregate feeds through the typed
// kernels of internal/expr (FilterChunk/EvalChunk) and internal/agg
// (FoldInto/FoldColumn). Residual θ conjuncts reference both relations, so
// they still evaluate per pair over the row view.
//
// Structure is deliberately parallel to the scalar reference interpreter
// (processTuple): the same dead/degenerate key handling and the same pair,
// probe, and pushdown accounting, so the two executors are diffable row
// for row and counter for counter. Context-cancellation polls and Stats
// counter updates happen once per batch instead of once per tuple, and all
// scratch lives on the worker's compiledPhase and batchDriver, so
// steady-state scanning allocates nothing.

// batchSize is the number of detail tuples processed per batch: large
// enough to amortize per-batch work (selection reset, stats flush, ctx
// poll), small enough that the batch's column vectors stay cache-resident.
// It equals table.ChunkSize so a Builder-built detail table's cached
// chunks line up one-to-one with the scan's batches.
const batchSize = table.ChunkSize

// chunkPhase holds one worker's compiled columnar programs and scratch for
// one phase. The ChunkCompiled kernels own scratch output columns, so a
// chunkPhase is built per worker (newPhaseExecs), never shared.
type chunkPhase struct {
	rOnly *expr.ChunkCompiled   // pushdown filter (nil if none)
	keys  []*expr.ChunkCompiled // equi-key expressions (index path)
	// args[j] is spec j's argument compiled for the chunk, or nil when the
	// argument references B (or is count(*)) and must feed per pair.
	args []*expr.ChunkCompiled
	// feedable is true when every spec either has a chunk-compiled
	// argument or is count(*): the precondition for the bulk fold below.
	feedable bool
	// per-batch resolved columns and caller-owned scratch (value slices:
	// one allocation each, EvalChunk takes &keyScr[i])
	keyCols []*table.Column
	keyScr  []table.Column
	argCols []*table.Column
	argScr  []table.Column
	// prober vectorizes plain-equality probes against the flat index
	// (nil for cube-rewritten keys or non-flat probe targets, which keep
	// the boxed per-row gather).
	prober *table.Prober
	// union of detail-column ordinals all programs read; the batch driver
	// transposes only these.
	ords []int
}

// addOrd appends o to ords unless present. The unions here are a handful
// of ordinals, so a linear scan beats allocating a set.
func addOrd(ords []int, o int) []int {
	for _, have := range ords {
		if have == o {
			return ords
		}
	}
	return append(ords, o)
}

// newChunkPhase compiles the phase's predicate pieces against the chunked
// detail slot. Pushdown and index-key expressions read only R by
// construction of the θ analysis, and CompileChunk accepts every node type
// Compile does, so their compilation cannot fail; if it ever does, the
// panic carries the CompileChunk error (EvalBundles isolates it per bundle
// as a *PanicError). A spec argument that cannot be chunk-compiled only
// disables the typed feed for that spec, not the whole phase.
func newChunkPhase(pp *phasePlan) *chunkPhase {
	cpk := &chunkPhase{ords: []int{}}
	addOrds := func(cc *expr.ChunkCompiled) *expr.ChunkCompiled {
		for _, o := range cc.Ordinals() {
			cpk.ords = addOrd(cpk.ords, o)
		}
		return cc
	}
	mustCompile := func(e expr.Expr) *expr.ChunkCompiled {
		cc, err := expr.CompileChunk(e, pp.bind, pp.rslot)
		if err != nil {
			panic(fmt.Errorf("core: phase %d: %w", pp.pi, err))
		}
		return addOrds(cc)
	}
	if pp.rOnly != nil {
		cpk.rOnly = mustCompile(pp.rOnly.Source())
	}
	if pp.index != nil {
		n := len(pp.equiKeys)
		cpk.keys = make([]*expr.ChunkCompiled, n)
		cpk.keyCols = make([]*table.Column, n)
		cpk.keyScr = make([]table.Column, n)
		for i, ke := range pp.equiKeys {
			cpk.keys[i] = mustCompile(ke.Source())
		}
		if len(pp.cubePos) == 0 {
			if ix, ok := pp.index.(*table.Index); ok {
				cpk.prober = table.NewProber(ix)
			}
		}
	}
	n := len(pp.specs)
	cpk.args = make([]*expr.ChunkCompiled, n)
	cpk.argCols = make([]*table.Column, n)
	cpk.argScr = make([]table.Column, n)
	cpk.feedable = true
	for j, c := range pp.specs {
		arg := c.Spec.Arg
		if arg == nil {
			continue // count(*): Feed's marker path, no argument column
		}
		cc, err := expr.CompileChunk(arg, pp.bind, pp.rslot)
		if err != nil {
			cpk.feedable = false // e.g. sum(B.x - R.y): per-pair boxed feed
			continue
		}
		cpk.args[j] = addOrds(cc)
	}
	return cpk
}

// batchDriver owns one worker's per-scan state: the evaluation frame, the
// scalar interpreter's probe-key buffer, and the scratch chunk that
// batches without a prebuilt chunk are transposed into (only the union of
// ordinals some phase reads).
type batchDriver struct {
	frame   []table.Row
	key     []table.Value
	rSchema *table.Schema
	// scratch is allocated lazily on the first batch with no prebuilt
	// chunk, so scans over Builder-built tables never pay for it.
	scratch *table.Chunk
	ords    []int
}

// newBatchDriver prepares a driver for one scan over phases cps (the union
// of every merged bundle's phases, when the driver is shared).
func newBatchDriver(rSchema *table.Schema, cps []*compiledPhase) *batchDriver {
	// ords stays non-nil: LoadRows reads nil as "transpose every column".
	d := &batchDriver{frame: make([]table.Row, 2), rSchema: rSchema, ords: []int{}}
	for _, cp := range cps {
		if cp.chunk == nil {
			continue
		}
		for _, o := range cp.chunk.ords {
			d.ords = addOrd(d.ords, o)
		}
	}
	return d
}

// transpose loads the batch's needed columns into the scratch chunk and
// returns it.
func (d *batchDriver) transpose(batch []table.Row) *table.Chunk {
	if d.scratch == nil {
		d.scratch = table.NewChunk(d.rSchema)
	}
	d.scratch.LoadRows(batch, d.ords)
	return d.scratch
}

// processBatch is the one entry point every scan driver feeds detail
// batches through. It folds the batch into every phase of cps (one
// bundle's phases, all compiled with the same DisableBatch setting). The
// columnar executor reads ch — the batch's prebuilt chunk, or the scratch
// chunk a caller already transposed it into — and transposes the batch
// itself when ch is nil. Under DisableBatch the scalar reference
// interpreter folds the rows one at a time and the batch counters stay
// zero.
func (d *batchDriver) processBatch(b *table.Table, cps []*compiledPhase, batch []table.Row, ch *table.Chunk, stats *Stats) {
	if len(cps) > 0 && cps[0].scalar {
		for _, t := range batch {
			d.key = processTuple(b, cps, d.frame, d.key, t, stats)
		}
		return
	}
	if ch == nil {
		ch = d.transpose(batch)
	}
	if stats != nil {
		stats.TuplesScanned += len(batch)
		stats.Batches++
		if ch == d.scratch {
			stats.ChunksTransposed++
		} else {
			stats.ChunksPrebuilt++
		}
	}
	for _, cp := range cps {
		processPhaseChunk(b, cp, d.frame, batch, ch, stats)
	}
}

// processPhaseChunk runs one phase over one batch's chunk: pushdown
// filters through FilterChunk, equi keys evaluate through EvalChunk into
// typed columns, aggregate arguments resolve once per batch, and the fused
// probe-and-feed loop gathers keys from the columns. Pair bookkeeping is
// identical to the scalar interpreter's, so Semantic() stats agree.
func processPhaseChunk(b *table.Table, cp *compiledPhase, frame []table.Row, batch []table.Row, ch *table.Chunk, stats *Stats) {
	cpk := cp.chunk
	frame[0], frame[1] = nil, nil
	cp.sel = expr.IdentitySel(cp.sel, len(batch))
	sel := cp.sel

	// Theorem 4.2: the R-only conjuncts gate the whole batch in one typed
	// pass, compacting the selection to the survivors.
	if cpk.rOnly != nil {
		in := len(sel)
		sel = cpk.rOnly.FilterChunk(ch, sel)
		if stats != nil {
			ph := stats.phase(cp.pi)
			ph.PushdownIn += in
			ph.PushdownOut += len(sel)
			countKernel(ph, cpk.rOnly, in)
		}
		if len(sel) == 0 {
			return
		}
	}

	// Resolve each chunkable aggregate argument once per batch. Plain
	// column references come back zero-copy; computed arguments evaluate
	// over the surviving selection (for selective phases this can touch
	// tuples that end up matching nothing — the price of batching).
	for j, cc := range cpk.args {
		if cc == nil {
			cpk.argCols[j] = nil
			continue
		}
		cpk.argCols[j] = cc.EvalChunk(ch, sel, &cpk.argScr[j])
		if stats != nil {
			countKernel(stats.phase(cp.pi), cc, len(sel))
		}
	}

	tested, matched := 0, 0
	if cp.index == nil {
		if cp.residual == nil && cpk.feedable {
			// Bulk fold: with no residual, every surviving tuple matches
			// every live base row, so each state folds the whole argument
			// column (in sel order — the same feed order as the pair loop).
			nAlive := 0
			for bi := range b.Rows {
				if !cp.bAlive[bi] {
					continue
				}
				nAlive++
				row := cp.states.Row(bi)
				for j, c := range cp.specs {
					if col := cpk.argCols[j]; col != nil {
						agg.FoldColumn(row[j], col, sel)
					} else {
						for range sel {
							c.Feed(row[j], nil) // count(*): frame unused
						}
					}
				}
			}
			flushPhaseStats(stats, cp.pi, nAlive*len(sel), nAlive*len(sel), 0, 0)
			return
		}
		// Verbatim Algorithm 3.1 inner loop for the surviving tuples.
		for _, si := range sel {
			frame[1] = batch[si]
			for bi, br := range b.Rows {
				if !cp.bAlive[bi] {
					continue
				}
				tested++
				if feedPair(cp, br, bi, frame, int(si)) {
					matched++
				}
			}
		}
		frame[0], frame[1] = nil, nil
		flushPhaseStats(stats, cp.pi, tested, matched, 0, 0)
		return
	}

	// Section 4.5: evaluate every index-key expression once over the
	// selection into a typed column.
	for i, cc := range cpk.keys {
		cpk.keyCols[i] = cc.EvalChunk(ch, sel, &cpk.keyScr[i])
		if stats != nil {
			countKernel(stats.phase(cp.pi), cc, len(sel))
		}
	}
	if cpk.prober != nil {
		probeChunkVectorized(b, cp, frame, batch, sel, stats)
		return
	}
	probeChunkBoxed(b, cp, frame, batch, sel, stats)
}

// probeChunkVectorized is the plain-equality probe pipeline: the prober
// hashes the key columns wholesale (typed vectors and dictionary codes,
// no boxed key per row), classifies each position, and the loop below
// only dispatches on the classification — probing the index through the
// fingerprint pre-filter for live positions and feeding matches into the
// arena states. Pair, probe, and hit accounting is identical to the
// scalar reference path; the filter counters are vectorized-only
// diagnostics and stay out of Stats.Semantic.
func probeChunkVectorized(b *table.Table, cp *compiledPhase, frame []table.Row, batch []table.Row, sel []int32, stats *Stats) {
	cpk := cp.chunk
	pr := cpk.prober
	pr.Begin(len(batch))
	for kix, kc := range cpk.keyCols {
		pr.FoldKeyCol(kix, kc, sel)
	}
	tested, matched, probes, hits := 0, 0, 0, 0
	checked, skipped := 0, 0
	for _, si := range sel {
		i := int(si)
		switch pr.State(i) {
		case table.ProbeDead:
			// NULL key: strict equality with NULL is never true.
			continue
		case table.ProbeDegen:
			// Detail-side ALL matches every base value under =^; full loop.
			frame[1] = batch[si]
			for bi, br := range b.Rows {
				if !cp.bAlive[bi] {
					continue
				}
				tested++
				if feedPair(cp, br, bi, frame, i) {
					matched++
				}
			}
		case table.ProbeMiss:
			// Dictionary translation proved no base row matches: account
			// the probe (the scalar path probes and gets zero hits) but
			// never touch the index.
			probes++
			skipped++
		default: // ProbeLive
			var skip bool
			cp.probeBuf, skip = pr.ProbeAppend(cp.probeBuf[:0], i)
			probes++
			hits += len(cp.probeBuf)
			if skip {
				skipped++
			} else {
				checked++
			}
			if len(cp.probeBuf) == 0 {
				continue
			}
			frame[1] = batch[si]
			for _, bi := range cp.probeBuf {
				if !cp.bAlive[bi] {
					continue
				}
				tested++
				if feedPair(cp, b.Rows[bi], bi, frame, i) {
					matched++
				}
			}
		}
	}
	frame[0], frame[1] = nil, nil
	flushPhaseStats(stats, cp.pi, tested, matched, probes, hits)
	flushFilterStats(stats, cp.pi, checked, skipped)
}

// probeChunkBoxed is the per-row gather fallback for phases the prober
// cannot serve: cube-rewritten keys (probeCubeBatched mutates the
// gathered key through 2^k ALL-substitution masks) and non-flat probe
// targets. Keys box back into []table.Value through Column.Value.
//
//mdlint:boxedkey cube rewriting mutates a boxed key copy per probe mask
func probeChunkBoxed(b *table.Table, cp *compiledPhase, frame []table.Row, batch []table.Row, sel []int32, stats *Stats) {
	cpk := cp.chunk
	nk := len(cpk.keys)
	if cap(cp.keyBuf) < nk {
		cp.keyBuf = make([]table.Value, nk)
	}
	key := cp.keyBuf[:nk]

	tested, matched, probes, hits := 0, 0, 0, 0
	for _, si := range sel {
		i := int(si)
		degenerate, dead := false, false
		for kix := range key {
			kc := cpk.keyCols[kix]
			if kc.IsAll(i) {
				// A detail-side ALL matches every base value under =^;
				// fall back to the full loop for this tuple (cannot arise
				// from ordinary detail data).
				degenerate = true
			}
			if kc.IsNull(i) && !cp.cubeAt[kix] {
				// Strict equality with NULL is never true: no base row
				// can match this tuple in this phase.
				dead = true
			}
			key[kix] = kc.Value(i)
		}
		if dead {
			continue
		}
		frame[1] = batch[si]
		switch {
		case degenerate:
			for bi, br := range b.Rows {
				if !cp.bAlive[bi] {
					continue
				}
				tested++
				if feedPair(cp, br, bi, frame, i) {
					matched++
				}
			}
		case len(cp.cubePos) == 0:
			// Plain equality: one probe, no key rewriting.
			cp.probeBuf = cp.index.ProbeAppend(cp.probeBuf[:0], key)
			probes++
			hits += len(cp.probeBuf)
			for _, bi := range cp.probeBuf {
				if !cp.bAlive[bi] {
					continue
				}
				tested++
				if feedPair(cp, b.Rows[bi], bi, frame, i) {
					matched++
				}
			}
		default:
			t, m, pr, h := probeCubeBatched(cp, b, key, frame, i)
			tested += t
			matched += m
			probes += pr
			hits += h
		}
	}
	frame[0], frame[1] = nil, nil
	flushPhaseStats(stats, cp.pi, tested, matched, probes, hits)
}

// countKernel attributes one chunk-kernel run's elements to the typed or
// boxed counter — the tripwire for the whole-column boxed fallback, which
// silently costs an order of magnitude over the typed loops.
func countKernel(ph *PhaseStats, cc *expr.ChunkCompiled, n int) {
	if cc.ResultBoxed() {
		ph.BoxedElems += int64(n)
	} else {
		ph.TypedElems += int64(n)
	}
}

// probeCubeBatched is probeCube with batch-local counters: one probe per
// cube-equality combination, so a tuple updates its 2^k cube cells in one
// pass. si carries the tuple's chunk position through to feedPair.
func probeCubeBatched(cp *compiledPhase, b *table.Table, key []table.Value, frame []table.Row, si int) (tested, matched, probes, hits int) {
	k := len(cp.cubePos)
	if cap(cp.savedBuf) < k {
		cp.savedBuf = make([]table.Value, k)
	}
	saved := cp.savedBuf[:k]
	for i, p := range cp.cubePos {
		saved[i] = key[p]
	}
	for mask := 0; mask < 1<<k; mask++ {
		for i, p := range cp.cubePos {
			if mask&(1<<i) != 0 {
				key[p] = table.All()
			} else {
				key[p] = saved[i]
			}
		}
		cp.probeBuf = cp.index.ProbeAppend(cp.probeBuf[:0], key)
		probes++
		hits += len(cp.probeBuf)
		for _, bi := range cp.probeBuf {
			if !cp.bAlive[bi] {
				continue
			}
			tested++
			if feedPair(cp, b.Rows[bi], bi, frame, si) {
				matched++
			}
		}
	}
	for i, p := range cp.cubePos {
		key[p] = saved[i]
	}
	return tested, matched, probes, hits
}

// feedPair checks the residual θ conjuncts for one (b, r) pair and feeds
// the aggregates on success, reporting whether the pair matched. Unlike
// updatePair it leaves the stats counters to the caller's batch-local
// accumulators. si is the tuple's position in the current chunk: specs
// with a resolved argument column fold the typed payload at si; the rest
// (count(*), or an argument that references B) feed through the row frame.
func feedPair(cp *compiledPhase, brow table.Row, bi int, frame []table.Row, si int) bool {
	frame[0] = brow
	if cp.residual != nil && !cp.residual.Truth(frame) {
		return false
	}
	row := cp.states.Row(bi)
	for j, c := range cp.specs {
		if col := cp.chunk.argCols[j]; col != nil {
			agg.FoldInto(row[j], col, si)
		} else {
			c.Feed(row[j], frame)
		}
	}
	return true
}

// flushPhaseStats adds one phase-batch's pair and probe counters to the
// shared Stats — the amortization point of the overhead contract: the
// fused loops above count into locals unconditionally and pay the nil
// check once per batch.
func flushPhaseStats(stats *Stats, pi, tested, matched, probes, hits int) {
	if stats == nil {
		return
	}
	stats.PairsTested += tested
	stats.PairsMatched += matched
	ph := stats.phase(pi)
	ph.PairsTested += tested
	ph.PairsMatched += matched
	ph.IndexProbes += probes
	ph.IndexHits += hits
}

// flushFilterStats adds one batch's fingerprint pre-filter counters —
// same amortization contract as flushPhaseStats.
func flushFilterStats(stats *Stats, pi, checked, skipped int) {
	if stats == nil {
		return
	}
	ph := stats.phase(pi)
	ph.FilterChecked += checked
	ph.FilterSkipped += skipped
}
