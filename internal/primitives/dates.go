package primitives

import "vectorwise/internal/types"

// Date primitives operate on int32 day-number vectors (the storage
// representation of DATE). Extraction functions return int32 parts; the
// expression layer widens as needed.

// DateYearV computes dst = EXTRACT(YEAR FROM a).
func DateYearV(dst, a []int32, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = types.DateYear(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = types.DateYear(a[i])
	}
}

// DateMonthV computes dst = EXTRACT(MONTH FROM a).
func DateMonthV(dst, a []int32, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = types.DateMonth(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = types.DateMonth(a[i])
	}
}

// DateDayV computes dst = EXTRACT(DAY FROM a).
func DateDayV(dst, a []int32, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = types.DateDay(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = types.DateDay(a[i])
	}
}

// DateQuarterV computes dst = EXTRACT(QUARTER FROM a).
func DateQuarterV(dst, a []int32, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = types.DateQuarter(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = types.DateQuarter(a[i])
	}
}

// DateDowV computes dst = ISO day of week of a.
func DateDowV(dst, a []int32, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = types.DateDayOfWeek(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = types.DateDayOfWeek(a[i])
	}
}

// DateAddDaysVC computes dst = a + c days, failing where the date leaves the
// int32 day range. The sum is taken in int64, where a wrapped sum never
// lands in that range.
func DateAddDaysVC(dst, a []int32, c int64, sel []int32) error {
	var flags int64
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			s := int64(a[i]) + c
			flags |= s - int64(int32(s)) // non-zero iff the sum does not fit
			dst[i] = int32(s)
		}
	} else {
		for _, i := range sel {
			s := int64(a[i]) + c
			flags |= s - int64(int32(s))
			dst[i] = int32(s)
		}
	}
	if flags == 0 {
		return nil
	}
	return overflowAt(len(dst), sel, func(i int) bool { return !dateFits(int64(a[i]) + c) })
}

// DateAddDaysVV computes dst = a + b days, failing as DateAddDaysVC does.
func DateAddDaysVV(dst, a []int32, b []int64, sel []int32) error {
	var flags int64
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			s := int64(a[i]) + b[i]
			flags |= s - int64(int32(s))
			dst[i] = int32(s)
		}
	} else {
		for _, i := range sel {
			s := int64(a[i]) + b[i]
			flags |= s - int64(int32(s))
			dst[i] = int32(s)
		}
	}
	if flags == 0 {
		return nil
	}
	return overflowAt(len(dst), sel, func(i int) bool { return !dateFits(int64(a[i]) + b[i]) })
}

func dateFits(s int64) bool { return s == int64(int32(s)) }

// DateAddMonthsVC computes dst = ADD_MONTHS(a, c) with day clamping,
// failing where the date leaves the DATE range.
func DateAddMonthsVC(dst, a []int32, c int64, sel []int32) error {
	bad := 0
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			var ok bool
			dst[i], ok = types.DateAddMonths(a[i], c)
			bad |= b2i(!ok)
		}
	} else {
		for _, i := range sel {
			var ok bool
			dst[i], ok = types.DateAddMonths(a[i], c)
			bad |= b2i(!ok)
		}
	}
	if bad == 0 {
		return nil
	}
	return overflowAt(len(dst), sel, func(i int) bool { _, ok := types.DateAddMonths(a[i], c); return !ok })
}

// DateAddMonthsVV computes dst = ADD_MONTHS(a, b), failing as
// DateAddMonthsVC does.
func DateAddMonthsVV(dst, a []int32, b []int64, sel []int32) error {
	bad := 0
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			var ok bool
			dst[i], ok = types.DateAddMonths(a[i], b[i])
			bad |= b2i(!ok)
		}
	} else {
		for _, i := range sel {
			var ok bool
			dst[i], ok = types.DateAddMonths(a[i], b[i])
			bad |= b2i(!ok)
		}
	}
	if bad == 0 {
		return nil
	}
	return overflowAt(len(dst), sel, func(i int) bool { _, ok := types.DateAddMonths(a[i], b[i]); return !ok })
}

// DateDiffVV computes dst = a - b in days, widened to int64.
func DateDiffVV(dst []int64, a, b []int32, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			dst[i] = int64(a[i]) - int64(b[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = int64(a[i]) - int64(b[i])
	}
}
