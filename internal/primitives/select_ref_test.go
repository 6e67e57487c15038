package primitives

// The branchy selection loops: the reference the branch-free primitives of
// select.go are checked and benchmarked against. Each appends a position
// under an if on the predicate, so it runs fast when the branch predictor
// guesses the outcome (selectivity near 0 or 100 %, or data it has seen
// before) and mispredicts on about half the rows near 50 %.

// refSelEqVC selects positions where a[i] == c.
func refSelEqVC[T comparable](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] == c {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] == c {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelNeVC selects positions where a[i] != c.
func refSelNeVC[T comparable](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] != c {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] != c {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelLtVC selects positions where a[i] < c.
func refSelLtVC[T Ordered](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] < c {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] < c {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelLeVC selects positions where a[i] <= c.
func refSelLeVC[T Ordered](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] <= c {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] <= c {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelGtVC selects positions where a[i] > c.
func refSelGtVC[T Ordered](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] > c {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] > c {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelGeVC selects positions where a[i] >= c.
func refSelGeVC[T Ordered](dst []int32, a []T, c T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] >= c {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] >= c {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelEqVV selects positions where a[i] == b[i].
func refSelEqVV[T comparable](dst []int32, a, b []T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] == b[i] {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] == b[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelNeVV selects positions where a[i] != b[i].
func refSelNeVV[T comparable](dst []int32, a, b []T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] != b[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelLtVV selects positions where a[i] < b[i].
func refSelLtVV[T Ordered](dst []int32, a, b []T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] < b[i] {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] < b[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelLeVV selects positions where a[i] <= b[i].
func refSelLeVV[T Ordered](dst []int32, a, b []T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] <= b[i] {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] <= b[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelGtVV selects positions where a[i] > b[i].
func refSelGtVV[T Ordered](dst []int32, a, b []T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] > b[i] {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] > b[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelGeVV selects positions where a[i] >= b[i].
func refSelGeVV[T Ordered](dst []int32, a, b []T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] >= b[i] {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] >= b[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelBetweenVCC selects positions where lo <= a[i] <= hi; a fused range
// predicate (one pass instead of two plus an AND).
func refSelBetweenVCC[T Ordered](dst []int32, a []T, lo, hi T, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] >= lo && a[i] <= hi {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] >= lo && a[i] <= hi {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelTrue selects positions where the bool vector is true.
func refSelTrue(dst []int32, a []bool, sel []int32, n int) []int32 {
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range sel {
		if a[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// refSelComplement selects the candidates sub does not hold, sub being an
// ordered subsequence of them.
func refSelComplement(dst, sub, sel []int32, n int) []int32 {
	dst = dst[:0]
	j := 0
	keep := func(i int32) {
		if j < len(sub) && sub[j] == i {
			j++
		} else {
			dst = append(dst, i)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			keep(int32(i))
		}
		return dst
	}
	for _, i := range sel {
		keep(i)
	}
	return dst
}

// refSelFalseGrouped selects positions where the bool vector is false, and
// keeps the groups of the candidates it selects (none for nil groups).
func refSelFalseGrouped(dst, gdst []int32, a []bool, groups, sel []int32, n int) ([]int32, []int32) {
	dst, gdst = dst[:0], gdst[:0]
	keep := func(k int, i int32) {
		if !a[i] {
			dst = append(dst, i)
			if groups != nil {
				gdst = append(gdst, groups[k])
			}
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			keep(i, int32(i))
		}
	} else {
		for k, i := range sel {
			keep(k, i)
		}
	}
	if groups == nil {
		return dst, nil
	}
	return dst, gdst
}
