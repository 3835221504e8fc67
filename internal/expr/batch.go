package expr

// Batch evaluation: the MD-join executor processes the detail relation in
// fixed-size batches, so per-phase predicates and index-key expressions
// run once per batch through the chunk kernels (chunk.go) instead of being
// re-dispatched tuple by tuple from the scan loop.
//
// The convention mirrors columnar engines' selection vectors: sel lists
// the batch positions still alive, and a filter compacts it in place to
// the survivors. Selection vectors are caller-owned and reused across
// batches, so steady-state evaluation allocates nothing.

// IdentitySel resets sel to the full selection [0, n) and returns it,
// growing the buffer only when n exceeds its capacity.
func IdentitySel(sel []int32, n int) []int32 {
	if cap(sel) < n {
		sel = make([]int32, n)
	}
	sel = sel[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}
