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

// Comparison map primitives produce a bool vector (used when a comparison is
// projected as a value rather than used as a filter; filters use the Sel*
// primitives in select.go instead).

// CmpEqVV computes dst = (a == b).
func CmpEqVV[T Ordered](dst []bool, a, b []T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] == b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] == b[i]
	}
}

// CmpEqVC computes dst = (a == c).
func CmpEqVC[T Ordered](dst []bool, a []T, c T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] == c
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] == c
	}
}

// CmpLtVV computes dst = (a < b).
func CmpLtVV[T Ordered](dst []bool, a, b []T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] < b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] < b[i]
	}
}

// CmpLtVC computes dst = (a < c).
func CmpLtVC[T Ordered](dst []bool, a []T, c T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] < c
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] < c
	}
}

// CmpLeVC computes dst = (a <= c).
func CmpLeVC[T Ordered](dst []bool, a []T, c T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] <= c
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] <= c
	}
}

// CmpNeVV computes dst = (a != b).
func CmpNeVV[T Ordered](dst []bool, a, b []T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] != b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] != b[i]
	}
}

// CmpNeVC computes dst = (a != c).
func CmpNeVC[T Ordered](dst []bool, a []T, c T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] != c
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] != c
	}
}

// CmpLeVV computes dst = (a <= b).
func CmpLeVV[T Ordered](dst []bool, a, b []T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] <= b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] <= b[i]
	}
}

// CmpGtVV computes dst = (a > b).
func CmpGtVV[T Ordered](dst []bool, a, b []T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] > b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] > b[i]
	}
}

// CmpGtVC computes dst = (a > c).
func CmpGtVC[T Ordered](dst []bool, a []T, c T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] > c
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] > c
	}
}

// CmpGeVV computes dst = (a >= b).
func CmpGeVV[T Ordered](dst []bool, a, b []T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] >= b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] >= b[i]
	}
}

// CmpGeVC computes dst = (a >= c).
func CmpGeVC[T Ordered](dst []bool, a []T, c T, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = a[i] >= c
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] >= c
	}
}

// CmpGeVV and friends complete the comparison family so the expression
// compiler can bind any operator/shape pair directly without extra NOT
// passes.

// Logical primitives on bool vectors.

// AndBool computes dst = a && b.
func AndBool(dst, a, b []bool, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			dst[i] = a[i] && b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] && b[i]
	}
}

// OrBool computes dst = a || b.
func OrBool(dst, a, b []bool, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			dst[i] = a[i] || b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] || b[i]
	}
}

// NotBool computes dst = !a.
func NotBool(dst, a []bool, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = !a[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = !a[i]
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
// of selA and b[i] at those of selB (SelSplit's two halves). Each branch was
// evaluated under its own selection only, so a branch that would fail on the
// rows the condition sends the other way never sees them.
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
