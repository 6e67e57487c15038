package primitives

import "fmt"

// Aggregation primitives come in two shapes, following X100:
//
//   - "from" aggregates fold a (selected) vector into one running value the
//     caller threads from vector to vector: ungrouped aggregation, whose
//     state stays in a register for a whole vector, and
//   - grouped aggregates, where groups[i] gives each selected row's
//     aggregate-table slot and the primitive scatters updates into dense
//     per-group arrays.
//
// Both shapes add values one at a time in row order, so a float sum comes
// out the same bits whichever shape computed it (a NaN apart: which of two
// NaN operands an add returns is the register allocator's choice), and
// MIN/MAX keep the same value on ties and NaNs. Integer sums are checked: each addition ORs the
// sign-flag word of CheckedAddVV, (acc^s)&(v^s), into a register — no branch
// per value — and one test after the loop reports ErrOverflow. The
// accumulator type A must be at least as wide as the value type T.

// SumFrom returns acc plus the selected values, each widened to the
// accumulator's type. It fails with ErrOverflow if any running total leaves
// A's range; the returned sum has then wrapped.
func SumFrom[A, T Integer](acc A, a []T, sel []int32, n int) (A, error) {
	var flags A
	if sel == nil {
		for _, v := range a[:n] {
			w := A(v)
			s := acc + w
			flags |= (acc ^ s) & (w ^ s)
			acc = s
		}
	} else {
		for _, i := range sel {
			w := A(a[i])
			s := acc + w
			flags |= (acc ^ s) & (w ^ s)
			acc = s
		}
	}
	if flags < 0 {
		return acc, ErrOverflow
	}
	return acc, nil
}

// SumFloatFrom returns acc plus the selected values, each converted to
// float64: SUM over DOUBLE, and the running sum of AVG over any number.
func SumFloatFrom[T Num](acc float64, a []T, sel []int32, n int) float64 {
	if sel == nil {
		for _, v := range a[:n] {
			acc += float64(v)
		}
		return acc
	}
	for _, i := range sel {
		acc += float64(a[i])
	}
	return acc
}

// SumDirect returns the sum of the selected values, for callers that
// cannot fail: an integer sum that overflows wraps.
func SumDirect[T Num](a []T, sel []int32, n int) T {
	switch a := any(a).(type) {
	case []float64:
		return T(SumFloatFrom(0, a, sel, n))
	case []int64:
		s, _ := SumFrom(int64(0), a, sel, n)
		return T(s)
	case []int32:
		s, _ := SumFrom(int32(0), a, sel, n)
		return T(s)
	}
	panic(fmt.Sprintf("primitives: SumDirect over %T", a))
}

// MinFrom folds the selected values into a running minimum; seen reports
// whether acc holds a value yet. The first value seeds it and later ones
// replace it only when they compare below it, so a NaN that arrives first
// stays, as in MinGrouped.
func MinFrom[T Ordered](acc T, seen bool, a []T, sel []int32, n int) (T, bool) {
	if sel == nil {
		a = a[:n]
		if !seen && len(a) > 0 {
			acc, seen, a = a[0], true, a[1:]
		}
		for _, v := range a {
			if v < acc {
				acc = v
			}
		}
		return acc, seen
	}
	if !seen && len(sel) > 0 {
		acc, seen, sel = a[sel[0]], true, sel[1:]
	}
	for _, i := range sel {
		if v := a[i]; v < acc {
			acc = v
		}
	}
	return acc, seen
}

// MaxFrom folds the selected values into a running maximum, like MinFrom.
func MaxFrom[T Ordered](acc T, seen bool, a []T, sel []int32, n int) (T, bool) {
	if sel == nil {
		a = a[:n]
		if !seen && len(a) > 0 {
			acc, seen, a = a[0], true, a[1:]
		}
		for _, v := range a {
			if v > acc {
				acc = v
			}
		}
		return acc, seen
	}
	if !seen && len(sel) > 0 {
		acc, seen, sel = a[sel[0]], true, sel[1:]
	}
	for _, i := range sel {
		if v := a[i]; v > acc {
			acc = v
		}
	}
	return acc, seen
}

// CountTrue counts the selected set positions of a bool vector; the hash
// join uses it to find NULL keys through their indicator column.
func CountTrue(a []bool, sel []int32, n int) int64 {
	var c int64
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] {
				c++
			}
		}
		return c
	}
	for _, i := range sel {
		if a[i] {
			c++
		}
	}
	return c
}

// CountFalse counts the selected unset positions of a bool vector without a
// branch per value: COUNT(col) over a NULLable column is the count of its
// false NULL indicators.
func CountFalse(a []bool, sel []int32, n int) int64 {
	var c int
	if sel == nil {
		for _, v := range a[:n] {
			c += b2i(!v)
		}
		return int64(c)
	}
	for _, i := range sel {
		c += b2i(!a[i])
	}
	return int64(c)
}

// Grouped aggregates. groups must be parallel to the *logical* rows: when
// sel is non-nil, groups[k] corresponds to row sel[k]; when sel is nil,
// groups[k] corresponds to row k. This matches how the hash-aggregation
// operator produces group positions for exactly the selected rows.

// SumGrouped adds the selected values, widened as in SumFrom, into
// acc[groups[k]]. It fails with ErrOverflow if any group's running total
// leaves A's range.
func SumGrouped[A, T Integer](acc []A, groups []int32, a []T, sel []int32, n int) error {
	var flags A
	if sel == nil {
		for k, v := range a[:n] {
			g := groups[k]
			w := A(v)
			s := acc[g] + w
			flags |= (acc[g] ^ s) & (w ^ s)
			acc[g] = s
		}
	} else {
		for k, i := range sel {
			g := groups[k]
			w := A(a[i])
			s := acc[g] + w
			flags |= (acc[g] ^ s) & (w ^ s)
			acc[g] = s
		}
	}
	if flags < 0 {
		return ErrOverflow
	}
	return nil
}

// SumFloatGrouped adds the selected values, converted to float64, into
// acc[groups[k]].
func SumFloatGrouped[T Num](acc []float64, groups []int32, a []T, sel []int32, n int) {
	if sel == nil {
		for k, v := range a[:n] {
			acc[groups[k]] += float64(v)
		}
		return
	}
	for k, i := range sel {
		acc[groups[k]] += float64(a[i])
	}
}

// CountGrouped increments counts for each selected row's group.
func CountGrouped(acc []int64, groups []int32, sel []int32, n int) {
	if sel == nil {
		for k := 0; k < n; k++ {
			acc[groups[k]]++
		}
		return
	}
	for k := range sel {
		acc[groups[k]]++
	}
}

// CountFalseGrouped adds each selected unset position of a bool vector to
// its group's count, like CountFalse.
func CountFalseGrouped(acc []int64, groups []int32, a []bool, sel []int32, n int) {
	if sel == nil {
		for k, v := range a[:n] {
			acc[groups[k]] += int64(b2i(!v))
		}
		return
	}
	for k, i := range sel {
		acc[groups[k]] += int64(b2i(!a[i]))
	}
}

// MinGrouped folds minima into acc; seen tracks which groups already hold a
// value.
func MinGrouped[T Ordered](acc []T, seen []bool, groups []int32, a []T, sel []int32, n int) {
	if sel == nil {
		for k := 0; k < n; k++ {
			g := groups[k]
			if !seen[g] || a[k] < acc[g] {
				acc[g] = a[k]
				seen[g] = true
			}
		}
		return
	}
	for k, i := range sel {
		g := groups[k]
		if !seen[g] || a[i] < acc[g] {
			acc[g] = a[i]
			seen[g] = true
		}
	}
}

// MaxGrouped folds maxima into acc; seen tracks which groups already hold a
// value.
func MaxGrouped[T Ordered](acc []T, seen []bool, groups []int32, a []T, sel []int32, n int) {
	if sel == nil {
		for k := 0; k < n; k++ {
			g := groups[k]
			if !seen[g] || a[k] > acc[g] {
				acc[g] = a[k]
				seen[g] = true
			}
		}
		return
	}
	for k, i := range sel {
		g := groups[k]
		if !seen[g] || a[i] > acc[g] {
			acc[g] = a[i]
			seen[g] = true
		}
	}
}
