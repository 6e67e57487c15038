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
// The result is never nil, even when empty: a nil selection means every
// row.

// b2i is the predicate's 0/1 value; the compiler turns it into a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selDst returns dst with room for m positions, never nil.
func selDst(dst []int32, m int) []int32 {
	if dst == nil || cap(dst) < m {
		return make([]int32, m)
	}
	return dst[:m]
}

// SelEqVC selects positions where a[i] == c. Equality and inequality take
// any comparable element type, BOOLEAN's []bool included.
func SelEqVC[T comparable](dst []int32, a []T, c T, sel []int32, n int) []int32 {
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
func SelNeVC[T comparable](dst []int32, a []T, c T, sel []int32, n int) []int32 {
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
func SelEqVV[T comparable](dst []int32, a, b []T, sel []int32, n int) []int32 {
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
func SelNeVV[T comparable](dst []int32, a, b []T, sel []int32, n int) []int32 {
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

// SelTrue selects positions where the bool vector is true: how a boolean
// that is not a predicate (a BOOLEAN column, an if) selects.
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

// SelFalseGrouped selects positions where the bool vector is false and
// compacts groups, parallel to the candidates, into gdst alongside: how an
// aggregate skips the rows a NULL indicator marks. With nil groups it only
// selects, and returns nil groups. gdst may alias groups as dst may alias
// sel.
func SelFalseGrouped(dst, gdst []int32, a []bool, groups, sel []int32, n int) ([]int32, []int32) {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		if groups == nil {
			for i, v := range a[:n] {
				dst[k] = int32(i)
				k += 1 - b2i(v)
			}
			return dst[:k], nil
		}
		gdst = selDst(gdst, n)
		for i, v := range a[:n] {
			dst[k] = int32(i)
			gdst[k] = groups[i]
			k += 1 - b2i(v)
		}
		return dst[:k], gdst[:k]
	}
	dst = selDst(dst, len(sel))
	if groups == nil {
		for _, i := range sel {
			dst[k] = i
			k += 1 - b2i(a[i])
		}
		return dst[:k], nil
	}
	gdst = selDst(gdst, len(sel))
	for j, i := range sel {
		dst[k] = i
		gdst[k] = groups[j]
		k += 1 - b2i(a[i])
	}
	return dst[:k], gdst[:k]
}

// SelComplement selects the candidates (sel, or [0, n) when sel is nil)
// that sub does not hold: the rows a predicate rejected, when sub is what it
// selected. sub must be a subset of the candidates. dst, sized to n, first
// serves as a mark per position (0 at every candidate, 1 where sub holds
// it), then takes the result: a candidate's slot is written only after every
// mark at or below its position was read. So dst may alias neither sel nor
// sub, and no pass follows a chain of dependent loads.
func SelComplement(dst, sub, sel []int32, n int) []int32 {
	dst = selDst(dst, n)
	if sel == nil {
		clear(dst)
	} else {
		for _, c := range sel {
			dst[c] = 0
		}
	}
	for _, s := range sub {
		dst[s] = 1
	}
	k := 0
	if sel == nil {
		for i := range dst {
			hit := dst[i]
			dst[k] = int32(i)
			k += 1 - int(hit)
		}
		return dst[:k]
	}
	for _, c := range sel {
		hit := dst[c]
		dst[k] = c
		k += 1 - int(hit)
	}
	return dst[:k]
}
