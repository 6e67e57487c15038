package primitives

import (
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Checked arithmetic: the paper's "Error handling and reporting" section
// explains that X100 originally assumed queries never fail, and that adding
// detection of division by zero, overflow etc. naively "would incur a
// significant overhead, and special algorithms in the kernel had to be
// devised".
//
// The special algorithm used here is *flag accumulation*: the loop computes
// wrapped results unconditionally and OR-accumulates an overflow indicator
// without branching on it, then a single test after the loop decides whether
// to rescan for the exact failing position. The common (error-free) path
// therefore costs one extra OR-and-compare per element and no branches; the
// error path pays a second scan but only when the query is failing anyway.
// bench/ times CheckedMulVVI64 as primitives.checked_mul_mrows_per_s.

// ErrOverflow reports integer overflow in checked arithmetic.
var ErrOverflow = errors.New("arithmetic overflow")

// ErrDivByZero reports division by zero.
var ErrDivByZero = errors.New("division by zero")

// PosError decorates an arithmetic error with the failing vector position so
// the engine can report the offending row.
type PosError struct {
	Err error
	Pos int
}

// Error implements error.
func (e *PosError) Error() string { return fmt.Sprintf("%v at row offset %d", e.Err, e.Pos) }

// Unwrap exposes the underlying cause.
func (e *PosError) Unwrap() error { return e.Err }

// CheckedAddVV computes dst = a + b detecting signed overflow. Returns nil
// on success or a *PosError identifying the first failing position.
func CheckedAddVV[T Integer](dst, a, b []T, sel []int32) error {
	var flags T
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			s := a[i] + b[i]
			// Overflow iff operands share a sign that differs from the
			// result's: (a^s)&(b^s) has the sign bit set.
			flags |= (a[i] ^ s) & (b[i] ^ s)
			dst[i] = s
		}
	} else {
		for _, i := range sel {
			s := a[i] + b[i]
			flags |= (a[i] ^ s) & (b[i] ^ s)
			dst[i] = s
		}
	}
	if flags >= 0 {
		return nil
	}
	// Error path: rescan to locate the first overflow.
	if sel == nil {
		for i := range dst {
			if s := a[i] + b[i]; (a[i]^s)&(b[i]^s) < 0 {
				return &PosError{Err: ErrOverflow, Pos: i}
			}
		}
	} else {
		for k, i := range sel {
			if s := a[i] + b[i]; (a[i]^s)&(b[i]^s) < 0 {
				return &PosError{Err: ErrOverflow, Pos: k}
			}
		}
	}
	return &PosError{Err: ErrOverflow, Pos: -1}
}

// CheckedSubVV computes dst = a - b detecting signed overflow.
func CheckedSubVV[T Integer](dst, a, b []T, sel []int32) error {
	var flags T
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			s := a[i] - b[i]
			// Overflow iff a and b differ in sign and s's sign differs
			// from a's.
			flags |= (a[i] ^ b[i]) & (a[i] ^ s)
			dst[i] = s
		}
	} else {
		for _, i := range sel {
			s := a[i] - b[i]
			flags |= (a[i] ^ b[i]) & (a[i] ^ s)
			dst[i] = s
		}
	}
	if flags >= 0 {
		return nil
	}
	if sel == nil {
		for i := range dst {
			if s := a[i] - b[i]; (a[i]^b[i])&(a[i]^s) < 0 {
				return &PosError{Err: ErrOverflow, Pos: i}
			}
		}
	} else {
		for k, i := range sel {
			if s := a[i] - b[i]; (a[i]^b[i])&(a[i]^s) < 0 {
				return &PosError{Err: ErrOverflow, Pos: k}
			}
		}
	}
	return &PosError{Err: ErrOverflow, Pos: -1}
}

// CheckedMulVVI64 computes dst = a * b for int64 detecting overflow. The
// branch-light check divides the result back: overflow iff a != 0 and
// s/a != b (with the MinInt64 * -1 corner handled by the same test).
func CheckedMulVVI64(dst, a, b []int64, sel []int32) error {
	bad := false
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			s := a[i] * b[i]
			bad = bad || (a[i] != 0 && (s/a[i] != b[i] || (a[i] == -1 && b[i] == math.MinInt64)))
			dst[i] = s
		}
	} else {
		for _, i := range sel {
			s := a[i] * b[i]
			bad = bad || (a[i] != 0 && (s/a[i] != b[i] || (a[i] == -1 && b[i] == math.MinInt64)))
			dst[i] = s
		}
	}
	if !bad {
		return nil
	}
	locate := func(i int, k int) error {
		s := a[i] * b[i]
		if a[i] != 0 && (s/a[i] != b[i] || (a[i] == -1 && b[i] == math.MinInt64)) {
			return &PosError{Err: ErrOverflow, Pos: k}
		}
		return nil
	}
	if sel == nil {
		for i := range dst {
			if err := locate(i, i); err != nil {
				return err
			}
		}
	} else {
		for k, i := range sel {
			if err := locate(int(i), k); err != nil {
				return err
			}
		}
	}
	return &PosError{Err: ErrOverflow, Pos: -1}
}

// CheckedMulVVI32 computes dst = a * b for int32 detecting overflow by
// widening to 64-bit — the cheap width-promotion trick available to narrow
// types.
func CheckedMulVVI32(dst, a, b []int32, sel []int32) error {
	var flags int64
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			w := int64(a[i]) * int64(b[i])
			flags |= w - int64(int32(w)) // non-zero iff truncation loses bits
			dst[i] = int32(w)
		}
	} else {
		for _, i := range sel {
			w := int64(a[i]) * int64(b[i])
			flags |= w - int64(int32(w))
			dst[i] = int32(w)
		}
	}
	if flags == 0 {
		return nil
	}
	if sel == nil {
		for i := range dst {
			if w := int64(a[i]) * int64(b[i]); w != int64(int32(w)) {
				return &PosError{Err: ErrOverflow, Pos: i}
			}
		}
	} else {
		for k, i := range sel {
			if w := int64(a[i]) * int64(b[i]); w != int64(int32(w)) {
				return &PosError{Err: ErrOverflow, Pos: k}
			}
		}
	}
	return &PosError{Err: ErrOverflow, Pos: -1}
}

// CheckedNegV computes dst = -a, failing where a is the minimum of T: its
// negation does not fit.
func CheckedNegV[T Integer](dst, a []T, sel []int32) error {
	var flags T
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			s := -a[i]
			// a and -a are both negative only for the minimum.
			flags |= a[i] & s
			dst[i] = s
		}
	} else {
		for _, i := range sel {
			s := -a[i]
			flags |= a[i] & s
			dst[i] = s
		}
	}
	if flags >= 0 {
		return nil
	}
	return overflowAt(len(dst), sel, func(i int) bool { return a[i]&-a[i] < 0 })
}

// CheckedAbsV computes dst = |a|, failing where a is the minimum of T.
func CheckedAbsV[T Integer](dst, a []T, sel []int32) error {
	var flags T
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			s := a[i]
			if s < 0 {
				s = -s
			}
			flags |= s // negative only where the negation wrapped
			dst[i] = s
		}
	} else {
		for _, i := range sel {
			s := a[i]
			if s < 0 {
				s = -s
			}
			flags |= s
			dst[i] = s
		}
	}
	if flags >= 0 {
		return nil
	}
	return overflowAt(len(dst), sel, func(i int) bool { return a[i]&-a[i] < 0 })
}

// CheckedNarrowV converts BIGINT to INTEGER, failing where a value does not
// fit.
func CheckedNarrowV(dst []int32, a []int64, sel []int32) error {
	var flags int64
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			flags |= a[i] - int64(int32(a[i])) // non-zero iff truncation loses bits
			dst[i] = int32(a[i])
		}
	} else {
		for _, i := range sel {
			flags |= a[i] - int64(int32(a[i]))
			dst[i] = int32(a[i])
		}
	}
	if flags == 0 {
		return nil
	}
	return overflowAt(len(dst), sel, func(i int) bool { return a[i] != int64(int32(a[i])) })
}

// CheckedTruncV converts DOUBLE to the integer type T, truncating toward
// zero, failing on NaN and on values outside T's range.
func CheckedTruncV[T Integer](dst []T, a []float64, sel []int32) error {
	lim := math.Ldexp(1, int(unsafe.Sizeof(T(0)))*8-1)
	out := func(x float64) bool {
		t := math.Trunc(x)
		return !(t >= -lim && t < lim)
	}
	bad := false
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			bad = bad || out(a[i])
			dst[i] = T(a[i])
		}
	} else {
		for _, i := range sel {
			bad = bad || out(a[i])
			dst[i] = T(a[i])
		}
	}
	if !bad {
		return nil
	}
	return overflowAt(len(dst), sel, func(i int) bool { return out(a[i]) })
}

// overflowAt locates the first of n positions (or of sel's) where bad holds.
func overflowAt(n int, sel []int32, bad func(i int) bool) error {
	if sel == nil {
		for i := 0; i < n; i++ {
			if bad(i) {
				return &PosError{Err: ErrOverflow, Pos: i}
			}
		}
	} else {
		for k, i := range sel {
			if bad(int(i)) {
				return &PosError{Err: ErrOverflow, Pos: k}
			}
		}
	}
	return &PosError{Err: ErrOverflow, Pos: -1}
}

// CheckedDivVV computes dst = a / b for integers, detecting zero divisors
// and the overflow of the minimum divided by -1. The scan for zero divisors
// is a separate vectorized pass so the division loop itself stays
// branch-free.
func CheckedDivVV[T Integer](dst, a, b []T, sel []int32) error {
	var prod T = 1
	if sel == nil {
		b2 := b[:len(dst)]
		for i := range b2 {
			prod *= boolToNum[T](b2[i] != 0)
		}
	} else {
		for _, i := range sel {
			prod *= boolToNum[T](b[i] != 0)
		}
	}
	if prod == 0 {
		if sel == nil {
			for i := range dst {
				if b[i] == 0 {
					return &PosError{Err: ErrDivByZero, Pos: i}
				}
			}
		} else {
			for k, i := range sel {
				if b[i] == 0 {
					return &PosError{Err: ErrDivByZero, Pos: k}
				}
			}
		}
	}
	// All divisors are non-zero. The one quotient that does not fit, the
	// minimum of T over -1, wraps to the minimum in Go: a negative quotient
	// of two negative operands, so a & b & q has its sign bit set there only.
	var flags T
	if sel == nil {
		a2 := a[:len(dst)]
		b2 := b[:len(dst)]
		for i := range dst {
			q := a2[i] / b2[i]
			flags |= a2[i] & b2[i] & q
			dst[i] = q
		}
	} else {
		for _, i := range sel {
			q := a[i] / b[i]
			flags |= a[i] & b[i] & q
			dst[i] = q
		}
	}
	if flags >= 0 {
		return nil
	}
	return overflowAt(len(dst), sel, func(i int) bool { return a[i]&b[i]&(a[i]/b[i]) < 0 })
}

func boolToNum[T Integer](b bool) T {
	if b {
		return 1
	}
	return 0
}

// CheckedDivVCF computes dst = a / c for floats with a constant divisor,
// returning ErrDivByZero when c == 0 (SQL semantics, not IEEE Inf). It
// divides: a product with 1/c is not always the quotient (1/c overflows for
// a subnormal c, and rounds for most others).
func CheckedDivVCF(dst, a []float64, c float64, sel []int32) error {
	if c == 0 && (len(sel) > 0 || sel == nil && len(dst) > 0) {
		return &PosError{Err: ErrDivByZero, Pos: 0}
	}
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = a[i] / c
		}
		return nil
	}
	for _, i := range sel {
		dst[i] = a[i] / c
	}
	return nil
}

// CheckedDivVVF computes dst = a / b for floats with SQL division-by-zero
// detection using a multiplicative zero test over divisors (no branch per
// element on the happy path; a product collapses to zero iff any divisor is
// zero or denormal-underflows, which the rescan disambiguates).
func CheckedDivVVF(dst, a, b []float64, sel []int32) error {
	anyZero := false
	if sel == nil {
		b2 := b[:len(dst)]
		for i := range b2 {
			anyZero = anyZero || b2[i] == 0
		}
	} else {
		for _, i := range sel {
			anyZero = anyZero || b[i] == 0
		}
	}
	if anyZero {
		if sel == nil {
			for i := range dst {
				if b[i] == 0 {
					return &PosError{Err: ErrDivByZero, Pos: i}
				}
			}
		} else {
			for k, i := range sel {
				if b[i] == 0 {
					return &PosError{Err: ErrDivByZero, Pos: k}
				}
			}
		}
	}
	DivVVF(dst, a, b, sel)
	return nil
}

// CheckedModVV computes dst = a % b detecting zero divisors.
func CheckedModVV[T Integer](dst, a, b []T, sel []int32) error {
	anyZero := false
	if sel == nil {
		b2 := b[:len(dst)]
		for i := range b2 {
			anyZero = anyZero || b2[i] == 0
		}
		if anyZero {
			for i := range dst {
				if b[i] == 0 {
					return &PosError{Err: ErrDivByZero, Pos: i}
				}
			}
		}
		ModVV(dst, a, b, nil)
		return nil
	}
	for _, i := range sel {
		anyZero = anyZero || b[i] == 0
	}
	if anyZero {
		for k, i := range sel {
			if b[i] == 0 {
				return &PosError{Err: ErrDivByZero, Pos: k}
			}
		}
	}
	ModVV(dst, a, b, sel)
	return nil
}
