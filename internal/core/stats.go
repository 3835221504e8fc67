package core

import (
	"fmt"
	"strings"
	"time"
)

// Execution observability: the structured metrics tree every executor path
// feeds. Collection follows one contract, enforced by TestStatsOverheadGuard:
// when Options.Stats is nil the hot path pays nothing beyond a pointer
// comparison — the columnar executor accumulates counters in locals and
// flushes once per batch behind a nil check, the scalar reference path
// guards every increment, and time.Now is never called. When Stats is
// non-nil the cost stays amortized per batch, not per tuple.

// ExecTier identifies which executor drove a phase's detail scan: the
// scalar reference interpreter or the columnar chunk executor. Tiers are
// serialized as numbers (the "tier" field of a JSON Stats tree), so the
// values are pinned explicitly; 2 belonged to a retired boxed row-batch
// executor and is not reused.
type ExecTier int

const (
	// TierUnset means the phase has not been scanned (or stats were off).
	TierUnset ExecTier = 0
	// TierScalar is the tuple-at-a-time Algorithm 3.1 interpreter
	// (Options.DisableBatch).
	TierScalar ExecTier = 1
	// TierColumnar is the typed columnar chunk executor of chunk.go — the
	// default.
	TierColumnar ExecTier = 3
)

func (t ExecTier) String() string {
	switch t {
	case TierScalar:
		return "scalar"
	case TierColumnar:
		return "columnar"
	default:
		return "unset"
	}
}

// PhaseStats is one phase's leaf of the metrics tree.
type PhaseStats struct {
	// Tier is the executor that drove this phase's scan.
	Tier ExecTier `json:"tier"`
	// IndexUsed reports whether a base index (Section 4.5) was built for
	// this phase's equi conjuncts.
	IndexUsed bool `json:"index_used"`
	// IndexProbes counts index lookups (one per surviving tuple for plain
	// equality, 2^k per tuple for k cube-equality positions); IndexHits
	// counts the candidate base rows those probes returned, before the
	// B-only liveness filter.
	IndexProbes int `json:"index_probes"`
	IndexHits   int `json:"index_hits"`
	// PushdownIn/PushdownOut measure Theorem 4.2 selectivity: detail tuples
	// entering the phase's R-only filter and tuples surviving it. Zero when
	// the phase has no pushed conjuncts.
	PushdownIn  int `json:"pushdown_in"`
	PushdownOut int `json:"pushdown_out"`
	// TypedElems/BoxedElems count elements evaluated by the columnar
	// kernels: elements whose kernel produced a typed column versus a
	// boxed fallback column (the perf cliff this tree exists to expose).
	// The scalar interpreter uses no batch kernels and leaves both zero.
	TypedElems int64 `json:"typed_elems"`
	BoxedElems int64 `json:"boxed_elems"`
	// PairsTested/PairsMatched are the phase's slice of the flat pair
	// counters.
	PairsTested  int `json:"pairs_tested"`
	PairsMatched int `json:"pairs_matched"`
	// FilterChecked/FilterSkipped split the vectorized prober's index
	// probes by how they resolved: checked probes reached the full hash
	// array, skipped probes short-circuited — the 8-bit tag fingerprint
	// proved the key absent, or dictionary translation already had (a
	// string missing from the index dictionary, a non-string key against
	// an all-string column). Both still count in IndexProbes; these are
	// tier-specific diagnostics and deliberately absent from Semantic().
	FilterChecked int `json:"filter_checked,omitempty"`
	FilterSkipped int `json:"filter_skipped,omitempty"`
}

// Stats is the execution metrics tree: flat whole-query counters plus one
// PhaseStats per phase of the generalized MD-join. Parallel evaluations
// give each worker a private Stats and fold them with Merge, so every field
// must be merge-covered (pinned by a reflection test).
type Stats struct {
	DetailScans   int  `json:"detail_scans"`   // full or filtered passes over R
	TuplesScanned int  `json:"tuples_scanned"` // detail tuples visited across all scans
	PairsTested   int  `json:"pairs_tested"`   // (b, r) candidate pairs evaluated
	PairsMatched  int  `json:"pairs_matched"`  // pairs that satisfied θ and updated aggregates
	IndexUsed     bool `json:"index_used"`     // any phase built a base index

	// Batches counts columnar-executor batches (zero on the scalar tier);
	// ChunksPrebuilt/ChunksTransposed split the columnar batches into those
	// served by a Builder-built columnar mirror and those transposed on the
	// fly — the zero-transpose ratio of the chunk path.
	Batches          int `json:"batches,omitempty"`
	ChunksPrebuilt   int `json:"chunks_prebuilt,omitempty"`
	ChunksTransposed int `json:"chunks_transposed,omitempty"`

	// PartitionPasses counts Theorem 4.1 memory-bounded passes (one per
	// base partition; zero when evaluation was single-pass).
	PartitionPasses int `json:"partition_passes,omitempty"`

	// ArenaBytes estimates the aggregate-state arenas' footprint, summed
	// across phases and parallel workers.
	ArenaBytes int64 `json:"arena_bytes,omitempty"`

	// Per-stage wall times. On parallel evaluations these sum across
	// workers (CPU-style accounting), so they can exceed wall clock.
	CompileNanos  int64 `json:"compile_nanos,omitempty"`
	ScanNanos     int64 `json:"scan_nanos,omitempty"`
	AssembleNanos int64 `json:"assemble_nanos,omitempty"`

	// Phases holds the per-phase subtree, indexed by phase ordinal.
	Phases []PhaseStats `json:"phases,omitempty"`
}

// phase returns the pi-th phase leaf, growing the tree as needed. Callers
// hold a non-nil *Stats; compilePhases pre-sizes the slice so the append
// path is cold.
func (s *Stats) phase(pi int) *PhaseStats {
	for len(s.Phases) <= pi {
		s.Phases = append(s.Phases, PhaseStats{})
	}
	return &s.Phases[pi]
}

// ensurePhases pre-sizes the per-phase subtree.
func (s *Stats) ensurePhases(n int) {
	for len(s.Phases) < n {
		s.Phases = append(s.Phases, PhaseStats{})
	}
}

// Merge folds another Stats into this one: counters add, booleans or, the
// phase subtrees merge pairwise. It is the single merge point for every
// parallel path (base-parallel, detail-parallel, source variants) and for
// distributed per-site stats, so a counter added here is merged everywhere;
// TestStatsMergeCoversAllFields asserts the coverage by reflection.
func (s *Stats) Merge(o *Stats) {
	if o == nil {
		return
	}
	s.DetailScans += o.DetailScans
	s.TuplesScanned += o.TuplesScanned
	s.PairsTested += o.PairsTested
	s.PairsMatched += o.PairsMatched
	s.IndexUsed = s.IndexUsed || o.IndexUsed
	s.Batches += o.Batches
	s.ChunksPrebuilt += o.ChunksPrebuilt
	s.ChunksTransposed += o.ChunksTransposed
	s.PartitionPasses += o.PartitionPasses
	s.ArenaBytes += o.ArenaBytes
	s.CompileNanos += o.CompileNanos
	s.ScanNanos += o.ScanNanos
	s.AssembleNanos += o.AssembleNanos
	for pi := range o.Phases {
		p := s.phase(pi)
		op := &o.Phases[pi]
		if p.Tier == TierUnset {
			p.Tier = op.Tier
		}
		p.IndexUsed = p.IndexUsed || op.IndexUsed
		p.IndexProbes += op.IndexProbes
		p.IndexHits += op.IndexHits
		p.PushdownIn += op.PushdownIn
		p.PushdownOut += op.PushdownOut
		p.TypedElems += op.TypedElems
		p.BoxedElems += op.BoxedElems
		p.PairsTested += op.PairsTested
		p.PairsMatched += op.PairsMatched
		p.FilterChecked += op.FilterChecked
		p.FilterSkipped += op.FilterSkipped
	}
}

// Tier reports the executor tier that drove the scan: the phases' common
// tier, TierUnset when nothing was scanned or the phases diverged (a
// Stats tree merged across scalar and columnar runs renders "mixed" via
// TierLabel instead).
func (s *Stats) Tier() ExecTier {
	t := TierUnset
	for i := range s.Phases {
		pt := s.Phases[i].Tier
		if pt == TierUnset {
			continue
		}
		if t == TierUnset {
			t = pt
		} else if t != pt {
			return TierUnset
		}
	}
	return t
}

// TierLabel renders the scan's executor tier for display: "scalar",
// "columnar", "mixed" when phases diverged, "" when unknown.
func (s *Stats) TierLabel() string {
	seen := TierUnset
	for i := range s.Phases {
		pt := s.Phases[i].Tier
		if pt == TierUnset {
			continue
		}
		if seen == TierUnset {
			seen = pt
		} else if seen != pt {
			return "mixed"
		}
	}
	if seen == TierUnset {
		return ""
	}
	return seen.String()
}

// String renders the counters in the style of an EXPLAIN ANALYZE line,
// reporting the actual executor tier alongside the access path (a zero
// Stats — nothing scanned — still renders "nested-loop").
func (s Stats) String() string {
	idx := "nested-loop"
	if s.IndexUsed {
		idx = "indexed"
	}
	exec := s.TierLabel()
	if exec != "" {
		exec += ", "
	}
	return fmt.Sprintf("scans=%d tuples=%d pairs=%d matched=%d (%s%s)",
		s.DetailScans, s.TuplesScanned, s.PairsTested, s.PairsMatched, exec, idx)
}

// Semantic renders the executor-independent projection of the tree: the
// counters that must be identical whichever tier drove the scan (tuple,
// pair, probe, and pushdown accounting — not tiers, batch/chunk counts,
// kernel element counts, or wall times, which differ by construction).
// The equivalence tests compare the two executors by this string.
func (s *Stats) Semantic() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scans=%d tuples=%d pairs=%d matched=%d indexed=%t",
		s.DetailScans, s.TuplesScanned, s.PairsTested, s.PairsMatched, s.IndexUsed)
	for i := range s.Phases {
		p := &s.Phases[i]
		fmt.Fprintf(&b, "; phase%d{indexed=%t probes=%d hits=%d pushin=%d pushout=%d pairs=%d matched=%d}",
			i, p.IndexUsed, p.IndexProbes, p.IndexHits, p.PushdownIn, p.PushdownOut, p.PairsTested, p.PairsMatched)
	}
	return b.String()
}

// Lines renders the full metrics tree, one line per level — the standard
// diagnostic block EXPLAIN ANALYZE and the bench harness print.
func (s *Stats) Lines() []string {
	out := []string{s.String()}
	if s.Batches > 0 || s.PartitionPasses > 0 || s.ArenaBytes > 0 {
		out = append(out, fmt.Sprintf("batches=%d chunks(prebuilt=%d transposed=%d) partitions=%d arena=%dB",
			s.Batches, s.ChunksPrebuilt, s.ChunksTransposed, s.PartitionPasses, s.ArenaBytes))
	}
	if s.CompileNanos > 0 || s.ScanNanos > 0 || s.AssembleNanos > 0 {
		out = append(out, fmt.Sprintf("times: compile=%v scan=%v assemble=%v",
			time.Duration(s.CompileNanos).Round(time.Microsecond),
			time.Duration(s.ScanNanos).Round(time.Microsecond),
			time.Duration(s.AssembleNanos).Round(time.Microsecond)))
	}
	for i := range s.Phases {
		p := &s.Phases[i]
		access := "nested-loop"
		if p.IndexUsed {
			access = fmt.Sprintf("indexed probes=%d hits=%d", p.IndexProbes, p.IndexHits)
			if p.FilterChecked > 0 || p.FilterSkipped > 0 {
				access += fmt.Sprintf(" filter(checked=%d skipped=%d)", p.FilterChecked, p.FilterSkipped)
			}
		}
		push := "pushdown=off"
		if p.PushdownIn > 0 {
			push = fmt.Sprintf("pushdown=%d→%d", p.PushdownIn, p.PushdownOut)
		}
		out = append(out, fmt.Sprintf("phase %d: tier=%s %s %s typed=%d boxed=%d pairs=%d matched=%d",
			i, p.Tier, access, push, p.TypedElems, p.BoxedElems, p.PairsTested, p.PairsMatched))
	}
	return out
}
