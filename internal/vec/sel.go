package vec

// Selection-vector helpers. A selection vector is a sorted []int32 of
// physical row positions; nil denotes the identity selection.

// Identity fills dst with 0..n-1 and returns it (allocating when needed).
func Identity(dst []int32, n int) []int32 {
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = int32(i)
	}
	return dst
}

// AndSel intersects two selection vectors (both sorted ascending); either
// may be nil meaning "first n rows". The result is written into dst.
func AndSel(dst, a, b []int32, n int) []int32 {
	if a == nil && b == nil {
		return Identity(dst, n)
	}
	if a == nil {
		return append(dst[:0], b...)
	}
	if b == nil {
		return append(dst[:0], a...)
	}
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// OrSel unions two sorted selection vectors into dst; either operand may be
// nil meaning "first n rows" (in which case the union is also everything).
func OrSel(dst, a, b []int32, n int) []int32 {
	if a == nil || b == nil {
		return Identity(dst, n)
	}
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// Invert produces positions in [0,n) absent from sel (sel sorted ascending).
// Used by NOT and by anti-join selection logic. The result is never nil: an
// empty complement must not read as the identity selection.
func Invert(dst, sel []int32, n int) []int32 {
	if dst == nil {
		dst = []int32{}
	}
	dst = dst[:0]
	j := 0
	for i := int32(0); int(i) < n; i++ {
		if j < len(sel) && sel[j] == i {
			j++
			continue
		}
		dst = append(dst, i)
	}
	return dst
}
