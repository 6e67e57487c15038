package primitives

// Selection primitives evaluate a predicate over the input selection and
// write the qualifying positions to dst, returning the new selection. They
// are the X100 way of filtering: no data movement, just position lists.
//
// When sel is nil the predicate runs over positions [0, n).
//
// Every loop is branch-free (Ross, "Selection conditions in main memory",
// TODS 2004): it writes each candidate position and advances its output
// cursor by the predicate's 0/1 value, so no branch depends on the data and
// the cost per row is the same at every selectivity. A branch on the
// predicate mispredicts on about half the rows near 50 % selectivity.
//
// dst is sized once to the candidate count and reused when it is large
// enough. It may alias sel: the write cursor never passes the read cursor.

// b2i is the predicate's 0/1 value; the compiler turns it into a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selDst returns dst with room for m positions.
func selDst(dst []int32, m int) []int32 {
	if cap(dst) < m {
		return make([]int32, m)
	}
	return dst[:m]
}

// SelEqVC selects positions where a[i] == c.
func SelEqVC[T Ordered](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v == c)
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] == c)
	}
	return dst[:k]
}

// SelNeVC selects positions where a[i] != c.
func SelNeVC[T Ordered](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v != c)
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] != c)
	}
	return dst[:k]
}

// SelLtVC selects positions where a[i] < c.
func SelLtVC[T Ordered](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v < c)
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] < c)
	}
	return dst[:k]
}

// SelLeVC selects positions where a[i] <= c.
func SelLeVC[T Ordered](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v <= c)
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] <= c)
	}
	return dst[:k]
}

// SelGtVC selects positions where a[i] > c.
func SelGtVC[T Ordered](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v > c)
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] > c)
	}
	return dst[:k]
}

// SelGeVC selects positions where a[i] >= c.
func SelGeVC[T Ordered](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v >= c)
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] >= c)
	}
	return dst[:k]
}

// SelEqVV selects positions where a[i] == b[i].
func SelEqVV[T Ordered](dst []int32, a, b []T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		b = b[:n]
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v == b[i])
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] == b[i])
	}
	return dst[:k]
}

// SelNeVV selects positions where a[i] != b[i].
func SelNeVV[T Ordered](dst []int32, a, b []T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		b = b[:n]
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v != b[i])
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] != b[i])
	}
	return dst[:k]
}

// SelLtVV selects positions where a[i] < b[i].
func SelLtVV[T Ordered](dst []int32, a, b []T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		b = b[:n]
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v < b[i])
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] < b[i])
	}
	return dst[:k]
}

// SelLeVV selects positions where a[i] <= b[i].
func SelLeVV[T Ordered](dst []int32, a, b []T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		b = b[:n]
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v <= b[i])
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] <= b[i])
	}
	return dst[:k]
}

// SelGtVV selects positions where a[i] > b[i].
func SelGtVV[T Ordered](dst []int32, a, b []T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		b = b[:n]
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v > b[i])
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] > b[i])
	}
	return dst[:k]
}

// SelGeVV selects positions where a[i] >= b[i].
func SelGeVV[T Ordered](dst []int32, a, b []T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		b = b[:n]
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v >= b[i])
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i] >= b[i])
	}
	return dst[:k]
}

// SelBetweenVCC selects positions where lo <= a[i] <= hi; a fused range
// predicate (one pass instead of two plus an AND). The two comparisons
// combine with & rather than &&, which would branch.
func SelBetweenVCC[T Ordered](dst []int32, a []T, lo, hi T, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v >= lo) & b2i(v <= hi)
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		v := a[i]
		k += b2i(v >= lo) & b2i(v <= hi)
	}
	return dst[:k]
}

// SelTrue selects positions where the bool vector is true; used for
// predicates that were materialized as bool values (e.g. LIKE results).
func SelTrue(dst []int32, a []bool, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(v)
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(a[i])
	}
	return dst[:k]
}

// SelSplit partitions the candidates by a bool vector: the positions where a
// is true go to t, the others to f, both in order. Neither result is nil,
// even when empty, so each can serve as a selection (where nil means every
// row).
func SelSplit(t, f []int32, a []bool, sel []int32, n int) ([]int32, []int32) {
	m := n
	if sel != nil {
		m = len(sel)
	}
	if t = selDst(t, m); t == nil {
		t = []int32{}
	}
	if f = selDst(f, m); f == nil {
		f = []int32{}
	}
	k, j := 0, 0
	if sel == nil {
		for i, v := range a[:n] {
			t[k], f[j] = int32(i), int32(i)
			k += b2i(v)
			j += 1 - b2i(v)
		}
		return t[:k], f[:j]
	}
	for _, i := range sel {
		t[k], f[j] = i, i
		k += b2i(a[i])
		j += 1 - b2i(a[i])
	}
	return t[:k], f[:j]
}
