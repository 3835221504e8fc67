package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mdjoin/internal/table"
)

// Merged evaluation: the merge and scatter stages of the three-stage API.
//
// EvalBundles generalizes the paper's Section 4.3 one step further: where a
// generalized MD-join shares one scan of R across the phases of one query,
// the merged driver shares one scan of R across the phases of several
// *queries* — each bundle keeps its own base table, flat index, liveness
// bitmap, and arena states, and every detail batch is fed through each live
// bundle in turn. Per-bundle θ pushdown stays separate (Theorem 4.2 applies
// per phase, exactly as in a solo run), morsel scheduling is unchanged from
// the single-query detail-parallel path, and the scatter stage assembles
// each bundle's output table and Stats independently, so a merged run is
// byte-identical and Semantic()-identical to N solo runs.
//
// Per-caller fault domains: a bundle whose Ctx cancels is evicted — its
// phases stop consuming batches, its submitter gets ctx.Err() — without
// aborting the scan for the others; a panic out of one bundle's phases
// (only possible with corrupt inputs) is caught per batch when bundles > 1
// and surfaces as *PanicError to that submitter alone. A solo run (one
// bundle) keeps today's contract: panics propagate to the caller.

// BundleResult is one bundle's scatter: its output table or the error that
// evicted it from the merged scan.
type BundleResult struct {
	Table *table.Table
	Err   error
}

// PanicError wraps a panic recovered from one bundle's phases during a
// merged multi-query scan, isolating the fault to the submitting caller.
type PanicError struct {
	Val any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: panic during merged evaluation: %v", e.Val)
}

func errUnmergeableBundles() error {
	return fmt.Errorf("core: EvalBundles needs mergeable bundles over one shared detail table")
}

// bundleRun is one bundle's mutable state across the merged scan: per-worker
// execution state and scratch stats, plus the eviction latch.
type bundleRun struct {
	bu      *Bundle
	workers [][]*compiledPhase
	stats   []Stats
	evicted atomic.Bool
	mu      sync.Mutex
	err     error
}

// evict latches the bundle out of the scan with its terminal error; the
// first error wins (a ctx cancellation seen by two workers reports once).
func (run *bundleRun) evict(err error) {
	run.mu.Lock()
	if run.err == nil {
		run.err = err
	}
	run.mu.Unlock()
	run.evicted.Store(true)
}

// wstats is worker wi's private stats sink for this bundle (nil when the
// submitter asked for none — the zero-overhead contract holds per bundle).
func (run *bundleRun) wstats(wi int) *Stats {
	if run.bu.opt.Stats == nil {
		return nil
	}
	return &run.stats[wi]
}

// feedBatch folds one detail batch into this bundle's phases cps. ch is
// the batch's chunk view (nil when no columnar bundle has needed one yet).
// When isolate is set the bundle is merged with others and a panic out of
// its phases evicts it instead of unwinding the scan.
func (run *bundleRun) feedBatch(d *batchDriver, cps []*compiledPhase, batch []table.Row, ch *table.Chunk, st *Stats, isolate bool) {
	if isolate {
		defer func() {
			if p := recover(); p != nil {
				run.evict(&PanicError{Val: p})
			}
		}()
	}
	d.processBatch(run.bu.base, cps, batch, ch, st)
}

// bindWorker prepares worker wi's execution state for this bundle. Like
// feedBatch, a panic (corrupt base data reaching arena sizing) evicts the
// bundle instead of unwinding the scan when merged.
func (run *bundleRun) bindWorker(wi int, st *Stats, isolate bool) []*compiledPhase {
	if isolate {
		defer func() {
			if p := recover(); p != nil {
				run.evict(&PanicError{Val: p})
			}
		}()
	}
	cps := newPhaseExecs(run.bu.plans, run.bu.base.Len())
	recordTiers(st, cps)
	recordArenas(st, cps)
	run.workers[wi] = cps
	return cps
}

// EvalBundles runs the merged multi-B evaluation: one scan of the shared
// detail table feeds every bundle's phases, then each bundle's results and
// stats scatter back independently (results[i] belongs to bundles[i]).
// Every bundle must be Mergeable and share one detail table. Worker count
// is the maximum DetailParallelism any bundle asked for; a group of one
// with no parallelism runs inline — this is also the single-query path.
func EvalBundles(bundles []*Bundle) []BundleResult {
	results := make([]BundleResult, len(bundles))
	if len(bundles) == 0 {
		return results
	}
	detail := bundles[0].detail
	for _, bu := range bundles {
		if !bu.Mergeable() || bu.detail != detail {
			err := errUnmergeableBundles()
			for i := range results {
				results[i].Err = err
			}
			return results
		}
	}
	isolate := len(bundles) > 1

	n := detail.Len()
	p := 1
	statsOn := false
	for _, bu := range bundles {
		if bu.opt.DetailParallelism > p {
			p = bu.opt.DetailParallelism
		}
		if bu.opt.Stats != nil {
			statsOn = true
		}
	}
	// Morsel sizing and worker clamping, unchanged from the single-query
	// morsel scheduler: shrink the morsel (chunk-aligned, at least one
	// chunk) when R is too small to give every worker a full-size one,
	// then never run more workers than morsels.
	morsel := morselRows
	if need := (n + p - 1) / p; p > 1 && need < morsel {
		morsel = (need + batchSize - 1) / batchSize * batchSize
		if morsel < batchSize {
			morsel = batchSize
		}
	}
	if nMorsels := (n + morsel - 1) / morsel; p > nMorsels {
		p = nMorsels
	}
	if p < 1 {
		p = 1
	}

	runs := make([]*bundleRun, len(bundles))
	for bi, bu := range bundles {
		runs[bi] = &bundleRun{
			bu:      bu,
			workers: make([][]*compiledPhase, p),
			stats:   make([]Stats, p),
		}
	}

	// The parent table's columnar mirror is shared read-only across
	// workers and bundles, addressed by row offset. Guard the offset
	// arithmetic: every chunk but the last must hold exactly batchSize rows.
	prebuilt := detail.CachedChunks(batchSize)
	for ci, ch := range prebuilt {
		lo := ci * batchSize
		want := batchSize
		if n-lo < want {
			want = n - lo
		}
		if ch.Len() != want {
			prebuilt = nil
			break
		}
	}

	var scanMark time.Time
	if statsOn {
		scanMark = time.Now()
	}

	rows := detail.Rows
	var cursor atomic.Int64
	worker := func(wi int) {
		execs := make([][]*compiledPhase, len(runs))
		var all []*compiledPhase
		for bi, run := range runs {
			if run.evicted.Load() {
				continue
			}
			execs[bi] = run.bindWorker(wi, run.wstats(wi), isolate)
			all = append(all, execs[bi]...)
		}
		// One driver serves every bundle, so its transpose set is the union
		// of the detail ordinals any bundle's phases read.
		d := newBatchDriver(detail.Schema, all)
		for {
			lo := int(cursor.Add(int64(morsel))) - morsel
			if lo >= n {
				return
			}
			hi := lo + morsel
			if hi > n {
				hi = n
			}
			for off := lo; off < hi; off += batchSize {
				end := off + batchSize
				if end > hi {
					end = hi
				}
				batch := rows[off:end]
				var ch *table.Chunk
				live := 0
				for bi, run := range runs {
					if run.evicted.Load() {
						continue
					}
					// Per-bundle poll: one caller's cancellation evicts
					// only its phases, never the shared scan.
					if err := ctxErr(run.bu.opt.Ctx); err != nil {
						run.evict(err)
						continue
					}
					if ch == nil && !execs[bi][0].scalar {
						// First live columnar bundle materializes the
						// batch's chunk view; the rest share it.
						if prebuilt != nil {
							ch = prebuilt[off/batchSize]
						} else {
							ch = d.transpose(batch)
						}
					}
					run.feedBatch(d, execs[bi], batch, ch, run.wstats(wi), isolate)
					if !run.evicted.Load() {
						live++
					}
				}
				if live == 0 {
					return // every bundle evicted: nothing left to feed
				}
			}
		}
	}

	if p == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		for wi := 0; wi < p; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				worker(wi)
			}(wi)
		}
		wg.Wait()
	}

	var scanNanos int64
	if statsOn {
		scanNanos = time.Since(scanMark).Nanoseconds()
	}

	// Scatter: each bundle assembles its own output and folds its workers'
	// scratch stats into its submitter's tree, independently of the others.
	for bi, run := range runs {
		bu := run.bu
		if run.err != nil {
			results[bi] = BundleResult{Err: run.err}
			continue
		}
		if bu.opt.Stats != nil {
			bu.opt.Stats.DetailScans++ // one shared scan, one logical scan per bundle
			bu.opt.Stats.ScanNanos += scanNanos
			for wi := range run.stats {
				bu.opt.Stats.Merge(&run.stats[wi])
			}
		}
		merged := run.workers[0]
		for _, w := range run.workers[1:] {
			for pi := range merged {
				merged[pi].states.Merge(w[pi].states)
			}
		}
		var mark time.Time
		if bu.opt.Stats != nil {
			mark = time.Now()
		}
		out := assemble(bu.schema, bu.base, merged)
		if bu.opt.Stats != nil {
			bu.opt.Stats.AssembleNanos += time.Since(mark).Nanoseconds()
		}
		results[bi] = BundleResult{Table: out}
	}
	return results
}
