package primitives

// Map primitives compute dst[i] = f(a[i], b[i]) for every selected position.
// Each comes in vector×vector (VV) and vector×constant (VC) shapes, the two
// shapes X100 specializes; constant×vector is normalized to VC by the
// expression compiler (commuting or rewriting the operator).
//
// Unselected positions of dst are left untouched: downstream consumers only
// read selected positions.

// AddVV computes dst = a + b.
func AddVV[T Num](dst, a, b []T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] + b[i]
	}
}

// AddVC computes dst = a + c.
func AddVC[T Num](dst, a []T, c T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = a[i] + c
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] + c
	}
}

// SubVV computes dst = a - b.
func SubVV[T Num](dst, a, b []T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			dst[i] = a[i] - b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] - b[i]
	}
}

// SubVC computes dst = a - c.
func SubVC[T Num](dst, a []T, c T, sel []int32) {
	AddVC(dst, a, -c, sel)
}

// SubCV computes dst = c - a.
func SubCV[T Num](dst []T, c T, a []T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = c - a[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = c - a[i]
	}
}

// MulVV computes dst = a * b.
func MulVV[T Num](dst, a, b []T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			dst[i] = a[i] * b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] * b[i]
	}
}

// MulVC computes dst = a * c.
func MulVC[T Num](dst, a []T, c T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = a[i] * c
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] * c
	}
}

// DivVVF computes dst = a / b for floats (IEEE semantics; checked integer
// division lives in checked.go).
func DivVVF(dst, a, b []float64, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			dst[i] = a[i] / b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] / b[i]
	}
}

// NegV computes dst = -a.
func NegV[T Num](dst, a []T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = -a[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = -a[i]
	}
}

// AbsV computes dst = |a|.
func AbsV[T Num](dst, a []T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			if a[i] < 0 {
				dst[i] = -a[i]
			} else {
				dst[i] = a[i]
			}
		}
		return
	}
	for _, i := range sel {
		if a[i] < 0 {
			dst[i] = -a[i]
		} else {
			dst[i] = a[i]
		}
	}
}

// MinVV computes dst = min(a, b) element-wise.
func MinVV[T Ordered](dst, a, b []T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			if a[i] < b[i] {
				dst[i] = a[i]
			} else {
				dst[i] = b[i]
			}
		}
		return
	}
	for _, i := range sel {
		if a[i] < b[i] {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

// MaxVV computes dst = max(a, b) element-wise.
func MaxVV[T Ordered](dst, a, b []T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			if a[i] > b[i] {
				dst[i] = a[i]
			} else {
				dst[i] = b[i]
			}
		}
		return
	}
	for _, i := range sel {
		if a[i] > b[i] {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

// Cast primitives.

// CastNum converts between numeric representations element-wise.
func CastNum[S Num, D Num](dst []D, a []S, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = D(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = D(a[i])
	}
}

// MergeSel joins the two branches of a CASE: dst[i] = a[i] at the positions
// of selA and b[i] at those of selB (the rows the condition selected and
// their SelComplement). Each branch was evaluated under its own selection
// only, so a branch that would fail on the rows the condition sends the
// other way never sees them.
func MergeSel[T any](dst, a, b []T, selA, selB []int32) {
	for _, i := range selA {
		dst[i] = a[i]
	}
	for _, i := range selB {
		dst[i] = b[i]
	}
}

// ModVV computes dst = a mod b for integers with non-zero b (checked variant
// in checked.go handles zero divisors).
func ModVV[T Integer](dst, a, b []T, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			dst[i] = a[i] % b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] % b[i]
	}
}
