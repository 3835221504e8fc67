package core

import (
	"time"

	"mdjoin/internal/table"
)

// Bundle: the compile stage of the three-stage evaluation API
// (compile → merge → scatter).
//
// Compile/CompileSource validate Options, derive the Theorem 4.1
// partition bound from a byte budget, and — for strategies that share one
// set of read-only plans across all workers — compile the phases up front:
// predicate pieces, equi-key programs, the base index, the B-only liveness
// bitmap, and the output schema. The resulting Bundle is an inert value:
// nothing has scanned yet, no arena has been allocated, and the same
// machinery that runs it alone (Bundle.Run) also runs it merged with other
// bundles over one shared detail scan (EvalBundles, merged.go). Eval and
// EvalSource are thin wrappers: compile one bundle, run it.
//
// Strategies that re-compile per base fragment — Theorem 4.1 partitioning
// and base-parallel workers, whose index and liveness bitmap are functions
// of the fragment — keep plans nil and dispatch to the recursive paths in
// partition.go/source.go; such bundles are not mergeable.

// Bundle is one compiled MD-join evaluation: the base table, the detail
// relation (materialized table or streaming source), the phases with their
// shared read-only plans, and the options that selected the strategy.
type Bundle struct {
	base   *table.Table
	detail *table.Table // nil when the detail relation is a source
	src    table.Source // nil when the detail relation is a table
	phases []Phase
	opt    Options

	// schema and plans are non-nil iff the bundle's strategy shares one
	// compiled plan set across workers (see prepare).
	schema *table.Schema
	plans  []*phasePlan
}

// Compile validates the options and compiles the phases of a generalized
// MD-join over a materialized detail table into a runnable Bundle.
func Compile(b, r *table.Table, phases []Phase, opt Options) (*Bundle, error) {
	bu := &Bundle{base: b, detail: r, phases: phases, opt: opt}
	if err := bu.prepare(r.Schema); err != nil {
		return nil, err
	}
	return bu, nil
}

// CompileSource is Compile for a streaming detail source.
func CompileSource(b *table.Table, src table.Source, phases []Phase, opt Options) (*Bundle, error) {
	bu := &Bundle{base: b, src: src, phases: phases, opt: opt}
	if err := bu.prepare(src.Schema()); err != nil {
		return nil, err
	}
	return bu, nil
}

// prepare validates, resolves the memory budget, and front-loads phase
// compilation for the plan-sharing strategies.
func (bu *Bundle) prepare(rSchema *table.Schema) error {
	if len(bu.phases) == 0 {
		return errNoPhases()
	}
	if bu.opt.Parallelism > 1 && bu.opt.DetailParallelism > 1 {
		return errConflictingParallelism()
	}
	// Fail fast on an already-cancelled context: a caller whose deadline
	// has expired (a timed-out mdserve request, a distributed site whose
	// caller gave up) must not pay for plan compilation, index builds, or
	// arena allocation just to discover the cancellation on the first
	// scan poll.
	if err := ctxErr(bu.opt.Ctx); err != nil {
		return err
	}
	if bu.opt.MaxBaseRows == 0 && bu.opt.MemoryBudgetBytes > 0 {
		bu.opt.MaxBaseRows = baseRowsForBudget(bu.base, bu.phases, bu.opt.MemoryBudgetBytes)
	}
	if bu.partitioned() || bu.opt.Parallelism > 1 {
		// Plans are per base fragment on these strategies; Run recurses
		// through the partitioning paths, which compile per fragment.
		return nil
	}
	schema, err := outSchema(bu.base, bu.phases)
	if err != nil {
		return err
	}
	var mark time.Time
	if bu.opt.Stats != nil {
		mark = time.Now()
	}
	plans, err := compilePhases(bu.base, rSchema, bu.phases, bu.opt)
	if err != nil {
		return err
	}
	if bu.opt.Stats != nil {
		bu.opt.Stats.CompileNanos += time.Since(mark).Nanoseconds()
	}
	bu.schema = schema
	bu.plans = plans
	return nil
}

// partitioned reports whether Theorem 4.1 partitioning applies.
func (bu *Bundle) partitioned() bool {
	return bu.opt.MaxBaseRows > 0 && bu.opt.MaxBaseRows < bu.base.Len()
}

// Detail returns the bundle's materialized detail table (nil for source
// bundles) — the identity the shared executor groups merge candidates by.
func (bu *Bundle) Detail() *table.Table { return bu.detail }

// Mergeable reports whether the bundle can join a multi-query merged scan:
// it must hold precompiled shared plans over a materialized detail table
// and not request a strategy the merged driver does not model (recursive
// partitioning or base parallelism).
func (bu *Bundle) Mergeable() bool {
	return bu.plans != nil && bu.detail != nil
}

// Run evaluates the bundle alone. Mergeable bundles go through the merged
// driver as a group of one — the single-query path is the one-bundle case
// of the shared machinery, not a parallel implementation.
func (bu *Bundle) Run() (*table.Table, error) {
	if bu.src != nil {
		switch {
		case bu.partitioned():
			return evalSourcePartitioned(bu.base, bu.src, bu.phases, bu.opt)
		case bu.opt.Parallelism > 1:
			return evalSourceParallelBase(bu.base, bu.src, bu.phases, bu.opt)
		case bu.opt.DetailParallelism > 1:
			return evalSourceParallelDetail(bu)
		default:
			return evalSourceSingle(bu)
		}
	}
	switch {
	case bu.partitioned():
		return evalPartitioned(bu.base, bu.detail, bu.phases, bu.opt)
	case bu.opt.Parallelism > 1:
		return evalParallelBase(bu.base, bu.detail, bu.phases, bu.opt)
	default:
		rs := EvalBundles([]*Bundle{bu})
		return rs[0].Table, rs[0].Err
	}
}

// evalSingle is the single-bundle convenience the recursive strategies
// call per base fragment: compile, then run as a one-bundle merged scan.
func evalSingle(b, r *table.Table, phases []Phase, opt Options) (*table.Table, error) {
	// The fragment inherits the caller's options with parallelism already
	// consumed by the outer strategy; force the sequential shape so a
	// stray DetailParallelism cannot fan out again inside a worker.
	opt.Parallelism = 0
	opt.DetailParallelism = 0
	bu, err := Compile(b, r, phases, opt)
	if err != nil {
		return nil, err
	}
	rs := EvalBundles([]*Bundle{bu})
	return rs[0].Table, rs[0].Err
}
