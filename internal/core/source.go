package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"mdjoin/internal/table"
)

// EvalSource evaluates a generalized MD-join whose detail relation is a
// table.Source — typically a disk-resident CSV file that is re-read on
// every scan. This realizes the paper's cost model literally: Theorem
// 4.1's "m scans of R" become m passes over the file, and the generalized
// MD-join's single shared scan becomes a single read.
//
// All Options are honored. Base-partitioned strategies issue one Scan per
// partition or worker; detail parallelism pumps a single scan through a
// channel to state-merging workers. Like Eval, this is a thin wrapper over
// the bundle API: compile one bundle, run it.
func EvalSource(b *table.Table, src table.Source, phases []Phase, opt Options) (*table.Table, error) {
	bu, err := CompileSource(b, src, phases, opt)
	if err != nil {
		return nil, err
	}
	return bu.Run()
}

// scanSource streams one pass of the source through the phases, buffering
// rows into fixed-size batches. Source iterators hand ownership of each
// returned row to the caller (table-backed iterators return stable
// references, CSV iterators allocate fresh rows), so buffering never sees
// a row mutated behind its back. A cancelled ctx aborts the scan between
// batches.
func scanSource(ctx context.Context, b *table.Table, src table.Source, cps []*compiledPhase, stats *Stats) error {
	recordTiers(stats, cps)
	it, err := src.Scan()
	if err != nil {
		return err
	}
	defer it.Close()
	d := newBatchDriver(src.Schema(), cps)
	buf := make([]table.Row, 0, batchSize)
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		buf = buf[:0]
		for len(buf) < batchSize {
			t, err := it.Next()
			if err == io.EOF {
				if len(buf) > 0 {
					d.processBatch(b, cps, buf, nil, stats)
				}
				return nil
			}
			if err != nil {
				return err
			}
			buf = append(buf, t)
		}
		d.processBatch(b, cps, buf, nil, stats)
	}
}

// evalSourceOne compiles and runs one sequential source pass — the per-
// fragment call of the recursive source strategies below.
func evalSourceOne(b *table.Table, src table.Source, phases []Phase, opt Options) (*table.Table, error) {
	opt.Parallelism = 0
	opt.DetailParallelism = 0
	bu, err := CompileSource(b, src, phases, opt)
	if err != nil {
		return nil, err
	}
	return evalSourceSingle(bu)
}

// evalSourceSingle streams one pass of the source through the bundle's
// precompiled phases on the calling goroutine.
func evalSourceSingle(bu *Bundle) (*table.Table, error) {
	b, src, opt := bu.base, bu.src, bu.opt
	var mark time.Time
	if opt.Stats != nil {
		mark = time.Now()
	}
	cps := newPhaseExecs(bu.plans, b.Len())
	recordArenas(opt.Stats, cps)
	if opt.Stats != nil {
		opt.Stats.CompileNanos += time.Since(mark).Nanoseconds()
		mark = time.Now()
	}
	if err := scanSource(opt.Ctx, b, src, cps, opt.Stats); err != nil {
		return nil, err
	}
	if opt.Stats != nil {
		opt.Stats.ScanNanos += time.Since(mark).Nanoseconds()
		opt.Stats.DetailScans++
		mark = time.Now()
	}
	out := assemble(bu.schema, b, cps)
	if opt.Stats != nil {
		opt.Stats.AssembleNanos += time.Since(mark).Nanoseconds()
	}
	return out, nil
}

// evalSourcePartitioned composes with Parallelism/DetailParallelism the
// same way evalPartitioned does: each pass recurses through EvalSource with
// partitioning cleared, so the parallel strategy applies within the pass.
func evalSourcePartitioned(b *table.Table, src table.Source, phases []Phase, opt Options) (*table.Table, error) {
	m := opt.MaxBaseRows
	sub := opt
	sub.MaxBaseRows = 0
	sub.MemoryBudgetBytes = 0

	var out *table.Table
	for lo := 0; lo < b.Len(); lo += m {
		hi := lo + m
		if hi > b.Len() {
			hi = b.Len()
		}
		if opt.Stats != nil {
			opt.Stats.PartitionPasses++
		}
		part := &table.Table{Schema: b.Schema, Rows: b.Rows[lo:hi]}
		res, err := EvalSource(part, src, phases, sub)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = table.New(res.Schema)
		}
		out.Rows = append(out.Rows, res.Rows...)
	}
	if out == nil {
		schema, err := outSchema(b, phases)
		if err != nil {
			return nil, err
		}
		out = table.New(schema)
	}
	return out, nil
}

func evalSourceParallelBase(b *table.Table, src table.Source, phases []Phase, opt Options) (*table.Table, error) {
	p := opt.Parallelism
	if p > b.Len() && b.Len() > 0 {
		p = b.Len()
	}
	if p <= 1 {
		return evalSourceOne(b, src, phases, opt)
	}
	sub := opt
	sub.Parallelism = 0
	sub.Stats = nil

	bounds := splitBounds(b.Len(), p)
	results := make([]*table.Table, len(bounds))
	errs := make([]error, len(bounds))
	stats := make([]Stats, len(bounds))

	var wg sync.WaitGroup
	for wi, bd := range bounds {
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			wopt := sub
			if opt.Stats != nil {
				wopt.Stats = &stats[wi]
			}
			part := &table.Table{Schema: b.Schema, Rows: b.Rows[lo:hi]}
			results[wi], errs[wi] = evalSourceOne(part, src, phases, wopt)
		}(wi, bd[0], bd[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if opt.Stats != nil {
		for wi := range stats {
			opt.Stats.Merge(&stats[wi])
		}
	}
	out := table.New(results[0].Schema)
	for _, res := range results {
		out.Rows = append(out.Rows, res.Rows...)
	}
	return out, nil
}

// evalSourceParallelDetail pumps a single scan through a channel to p
// state-merging workers. One reader goroutine owns the iterator and
// slices the stream into batch-sized morsels; workers pull whole morsels
// (the source-side analogue of evalParallelDetail's cursor queue — the
// channel is the queue), own private phase states (merged at the end),
// and share nothing else.
func evalSourceParallelDetail(bu *Bundle) (*table.Table, error) {
	b, src, opt := bu.base, bu.src, bu.opt
	p := opt.DetailParallelism
	if p <= 1 {
		return evalSourceSingle(bu)
	}
	schema, plans := bu.schema, bu.plans
	morsels := make(chan []table.Row, 2*p)
	readErr := make(chan error, 1)
	go func() {
		defer close(morsels)
		it, err := src.Scan()
		if err != nil {
			readErr <- err
			return
		}
		defer it.Close()
		// Each morsel is a fresh slice: workers hold theirs while the
		// reader fills the next (source iterators hand over row ownership,
		// so buffering is safe).
		buf := make([]table.Row, 0, batchSize)
		for n := 0; ; n++ {
			if n%cancelCheckInterval == 0 {
				if err := ctxErr(opt.Ctx); err != nil {
					readErr <- err
					return
				}
			}
			t, err := it.Next()
			if err == io.EOF {
				if len(buf) > 0 {
					morsels <- buf
				}
				readErr <- nil
				return
			}
			if err != nil {
				readErr <- err
				return
			}
			buf = append(buf, t)
			if len(buf) == batchSize {
				morsels <- buf
				buf = make([]table.Row, 0, batchSize)
			}
		}
	}()

	// Plans were compiled once by CompileSource, before any worker starts:
	// they are read-only and shared; each worker gets private arena states
	// below.
	workers := make([][]*compiledPhase, p)
	errs := make([]error, p)
	stats := make([]Stats, p)
	var wg sync.WaitGroup
	for wi := 0; wi < p; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var st *Stats
			if opt.Stats != nil {
				st = &stats[wi]
			}
			cps := newPhaseExecs(plans, b.Len())
			recordTiers(st, cps)
			recordArenas(st, cps)
			drainOnCancel := func() bool {
				if err := ctxErr(opt.Ctx); err != nil {
					errs[wi] = err
					for range morsels {
					}
					return true
				}
				return false
			}
			// Each morsel is already one batch.
			d := newBatchDriver(src.Schema(), cps)
			for m := range morsels {
				if drainOnCancel() {
					return
				}
				d.processBatch(b, cps, m, nil, st)
			}
			workers[wi] = cps
		}(wi)
	}
	wg.Wait()
	if err := <-readErr; err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if opt.Stats != nil {
		opt.Stats.DetailScans++
		for wi := range stats {
			opt.Stats.Merge(&stats[wi])
		}
	}
	merged := workers[0]
	for _, w := range workers[1:] {
		for pi := range merged {
			merged[pi].states.Merge(w[pi].states)
		}
	}
	return assemble(schema, b, merged), nil
}

func errNoPhases() error {
	return fmt.Errorf("core: MD-join needs at least one phase")
}

func errConflictingParallelism() error {
	return fmt.Errorf("core: Parallelism and DetailParallelism are mutually exclusive")
}
