package expr

import "testing"

// TestIdentitySelReuse pins buffer reuse across batches of varying size.
func TestIdentitySelReuse(t *testing.T) {
	sel := IdentitySel(nil, 8)
	c := cap(sel)
	sel = IdentitySel(sel, 4)
	if len(sel) != 4 || cap(sel) != c {
		t.Fatalf("shrink reallocated: len=%d cap=%d", len(sel), cap(sel))
	}
	for i, v := range sel {
		if v != int32(i) {
			t.Fatalf("sel[%d] = %d", i, v)
		}
	}
	sel = IdentitySel(sel, 100)
	if len(sel) != 100 || sel[99] != 99 {
		t.Fatalf("grow wrong: len=%d", len(sel))
	}
}
