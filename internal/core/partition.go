package core

import (
	"sync"

	"mdjoin/internal/table"
)

// evalPartitioned implements Theorem 4.1's in-memory evaluation: B is split
// into contiguous partitions of at most MaxBaseRows rows and R is scanned
// once per partition. MD(B,R,l,θ) = ∪ᵢ MD(Bᵢ,R,l,θ); contiguous partitions
// preserve B's row order in the concatenated result.
//
// Parallelism and DetailParallelism compose: each partition pass recurses
// through Eval with the partitioning options cleared, so the requested
// parallel strategy applies within every pass (see the Options.MaxBaseRows
// doc for the memory implications).
func evalPartitioned(b, r *table.Table, phases []Phase, opt Options) (*table.Table, error) {
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
		res, err := Eval(part, r, phases, sub)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = table.New(res.Schema)
		}
		out.Rows = append(out.Rows, res.Rows...)
	}
	if out == nil { // empty B
		schema, err := outSchema(b, phases)
		if err != nil {
			return nil, err
		}
		out = table.New(schema)
	}
	return out, nil
}

// evalParallelBase implements Theorem 4.1's intra-operator parallelism: B
// is partitioned across p workers, each evaluating its fragment with a full
// scan of R; fragments concatenate in order.
func evalParallelBase(b, r *table.Table, phases []Phase, opt Options) (*table.Table, error) {
	p := opt.Parallelism
	if p > b.Len() && b.Len() > 0 {
		p = b.Len()
	}
	if p <= 1 {
		return evalSingle(b, r, phases, opt)
	}
	sub := opt
	sub.Parallelism = 0
	sub.Stats = nil // workers keep private stats; merged below

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
			results[wi], errs[wi] = evalSingle(part, r, phases, wopt)
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

// morselRows is the morsel size of the detail-parallel scheduler: the
// contiguous row range a worker claims per cursor bump. A few chunks
// amortizes the claim (one atomic add per morsel) while staying small
// enough that a skewed tail redistributes across the pool. The morsel
// queue itself lives in the merged driver (merged.go): detail parallelism
// is the one-bundle case of the merged multi-query scan.
const morselRows = 4 * batchSize

// splitBounds divides n items into p contiguous [lo, hi) ranges of nearly
// equal size; empty ranges are dropped.
func splitBounds(n, p int) [][2]int {
	if p < 1 {
		p = 1
	}
	var out [][2]int
	base, rem := n/p, n%p
	lo := 0
	for i := 0; i < p; i++ {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	if len(out) == 0 {
		out = append(out, [2]int{0, 0})
	}
	return out
}
