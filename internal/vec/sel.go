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
