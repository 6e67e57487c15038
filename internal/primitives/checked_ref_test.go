package primitives

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// The naive checked addition: the reference the flag-accumulating checked
// primitives are tested against. It calls a check function per element and
// stops at the first error, the straightforward implementation the paper
// says costs too much in a vectorized kernel.

// naiveCheckFn validates one pair of operands; returns an error to abort.
type naiveCheckFn[T Integer] func(a, b T) error

// naiveCheckedAddVV is the per-element checked addition.
func naiveCheckedAddVV[T Integer](dst, a, b []T, sel []int32, check naiveCheckFn[T]) error {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			if err := check(a[i], b[i]); err != nil {
				return &PosError{Err: err, Pos: i}
			}
			dst[i] = a[i] + b[i]
		}
		return nil
	}
	for k, i := range sel {
		if err := check(a[i], b[i]); err != nil {
			return &PosError{Err: err, Pos: k}
		}
		dst[i] = a[i] + b[i]
	}
	return nil
}

// naiveAddOverflowCheck is the standard per-pair overflow test.
func naiveAddOverflowCheck[T Integer](a, b T) error {
	s := a + b
	if (a^s)&(b^s) < 0 {
		return ErrOverflow
	}
	return nil
}

func TestNaiveChecked(t *testing.T) {
	dst := make([]int64, 2)
	if err := naiveCheckedAddVV(dst, []int64{1, 2}, []int64{3, 4}, nil, naiveAddOverflowCheck[int64]); err != nil || dst[1] != 6 {
		t.Fatalf("naive add: %v %v", dst, err)
	}
	err := naiveCheckedAddVV(dst[:1], []int64{math.MaxInt64}, []int64{1}, nil, naiveAddOverflowCheck[int64])
	if !errors.Is(err, ErrOverflow) {
		t.Fatal("naive overflow missed")
	}
}

// Property: checked and naive-checked addition agree on both result and
// error/no-error outcome.
func TestCheckedAgreesWithNaiveProperty(t *testing.T) {
	f := func(a, b []int64) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		d1 := make([]int64, n)
		d2 := make([]int64, n)
		e1 := CheckedAddVV(d1, a, b, nil)
		e2 := naiveCheckedAddVV(d2, a, b, nil, naiveAddOverflowCheck[int64])
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 != nil {
			var p1, p2 *PosError
			errors.As(e1, &p1)
			errors.As(e2, &p2)
			return p1.Pos == p2.Pos
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
