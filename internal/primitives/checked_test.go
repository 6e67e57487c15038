package primitives

import (
	"errors"
	"math"
	"testing"
)

func TestCheckedAddNoOverflow(t *testing.T) {
	a := []int64{1, 2, 3}
	b := []int64{4, 5, 6}
	dst := make([]int64, 3)
	if err := CheckedAddVV(dst, a, b, nil); err != nil {
		t.Fatal(err)
	}
	if dst[2] != 9 {
		t.Fatal("sum wrong")
	}
}

func TestCheckedAddOverflow(t *testing.T) {
	a := []int64{1, math.MaxInt64, 3}
	b := []int64{1, 1, 3}
	dst := make([]int64, 3)
	err := CheckedAddVV(dst, a, b, nil)
	if err == nil {
		t.Fatal("expected overflow")
	}
	var pe *PosError
	if !errors.As(err, &pe) || pe.Pos != 1 || !errors.Is(err, ErrOverflow) {
		t.Fatalf("wrong error: %v", err)
	}
	// Negative overflow too.
	a = []int64{math.MinInt64}
	b = []int64{-1}
	if err := CheckedAddVV(make([]int64, 1), a, b, nil); !errors.Is(err, ErrOverflow) {
		t.Fatal("negative overflow missed")
	}
	// With selection: overflow at unselected position is ignored.
	a = []int64{math.MaxInt64, 5}
	b = []int64{1, 5}
	if err := CheckedAddVV(make([]int64, 2), a, b, []int32{1}); err != nil {
		t.Fatalf("unselected overflow reported: %v", err)
	}
}

func TestCheckedSub(t *testing.T) {
	dst := make([]int64, 2)
	if err := CheckedSubVV(dst, []int64{5, 0}, []int64{3, 7}, nil); err != nil || dst[1] != -7 {
		t.Fatalf("sub: %v %v", dst, err)
	}
	if err := CheckedSubVV(dst, []int64{math.MinInt64, 0}, []int64{1, 0}, nil); !errors.Is(err, ErrOverflow) {
		t.Fatal("sub overflow missed")
	}
	var pe *PosError
	err := CheckedSubVV(dst, []int64{0, math.MaxInt64}, []int64{0, -1}, nil)
	if !errors.As(err, &pe) || pe.Pos != 1 {
		t.Fatalf("sub overflow position: %v", err)
	}
}

func TestCheckedMulI64(t *testing.T) {
	dst := make([]int64, 2)
	if err := CheckedMulVVI64(dst, []int64{1 << 31, 3}, []int64{2, 3}, nil); err != nil || dst[1] != 9 {
		t.Fatalf("mul: %v %v", dst, err)
	}
	if err := CheckedMulVVI64(dst, []int64{1 << 32, 1}, []int64{1 << 32, 1}, nil); !errors.Is(err, ErrOverflow) {
		t.Fatal("mul overflow missed")
	}
	if err := CheckedMulVVI64(dst, []int64{math.MinInt64, 1}, []int64{-1, 1}, nil); !errors.Is(err, ErrOverflow) {
		t.Fatal("MinInt*-1 overflow missed")
	}
}

func TestCheckedMulI32(t *testing.T) {
	dst := make([]int32, 2)
	if err := CheckedMulVVI32(dst, []int32{1000, -4}, []int32{1000, 5}, nil); err != nil || dst[0] != 1000000 || dst[1] != -20 {
		t.Fatalf("mul32: %v %v", dst, err)
	}
	if err := CheckedMulVVI32(dst, []int32{1 << 20, 1}, []int32{1 << 20, 1}, nil); !errors.Is(err, ErrOverflow) {
		t.Fatal("mul32 overflow missed")
	}
}

func TestCheckedDiv(t *testing.T) {
	dst := make([]int64, 3)
	if err := CheckedDivVV(dst, []int64{10, 9, 8}, []int64{2, 3, 4}, nil); err != nil || dst[0] != 5 || dst[2] != 2 {
		t.Fatalf("div: %v %v", dst, err)
	}
	err := CheckedDivVV(dst, []int64{10, 9, 8}, []int64{2, 0, 4}, nil)
	var pe *PosError
	if !errors.As(err, &pe) || pe.Pos != 1 || !errors.Is(err, ErrDivByZero) {
		t.Fatalf("div0: %v", err)
	}
	// Selected: zero at unselected slot must not error.
	if err := CheckedDivVV(dst, []int64{10, 9, 8}, []int64{2, 0, 4}, []int32{0, 2}); err != nil {
		t.Fatalf("div sel: %v", err)
	}
}

func TestCheckedDivFloat(t *testing.T) {
	dst := make([]float64, 2)
	if err := CheckedDivVVF(dst, []float64{1, 4}, []float64{2, 2}, nil); err != nil || dst[1] != 2 {
		t.Fatalf("fdiv: %v %v", dst, err)
	}
	if err := CheckedDivVVF(dst, []float64{1, 4}, []float64{2, 0}, nil); !errors.Is(err, ErrDivByZero) {
		t.Fatal("fdiv0 missed")
	}
	if err := CheckedDivVCF(dst, []float64{1, 4}, 0, nil); !errors.Is(err, ErrDivByZero) {
		t.Fatal("fdivc0 missed")
	}
	if err := CheckedDivVCF(dst, []float64{1, 4}, 2, nil); err != nil || dst[0] != 0.5 {
		t.Fatalf("fdivc: %v %v", dst, err)
	}
	// The quotient, not a product with the reciprocal.
	if err := CheckedDivVCF(dst, []float64{0, 3}, 5e-324, nil); err != nil || dst[0] != 0 || dst[1] != math.Inf(1) {
		t.Fatalf("fdivc subnormal: %v %v", dst, err)
	}
	x, y, c := 0.3, 49.0, 0.1
	if err := CheckedDivVCF(dst, []float64{x, y}, c, nil); err != nil || dst[0] != x/c || dst[1] != y/c {
		t.Fatalf("fdivc rounding: %v %v", dst, err)
	}
	// A constant zero divisor fails only rows that are selected.
	if err := CheckedDivVCF(dst, []float64{1, 4}, 0, []int32{}); err != nil {
		t.Fatalf("fdivc0 under an empty selection: %v", err)
	}
}

// Negation, absolute value, narrowing casts, integer division and date
// arithmetic fail where the result does not fit, at the first failing
// position, and never at an unselected one.
func TestCheckedNegAbsCast(t *testing.T) {
	checks := []struct {
		name string
		run  func(sel []int32) error
		bad  int // position of the one value that does not fit
	}{
		{"neg64", func(sel []int32) error {
			return CheckedNegV(make([]int64, 3), []int64{5, math.MinInt64, -7}, sel)
		}, 1},
		{"neg32", func(sel []int32) error {
			return CheckedNegV(make([]int32, 3), []int32{math.MaxInt32, -1, math.MinInt32}, sel)
		}, 2},
		{"abs64", func(sel []int32) error {
			return CheckedAbsV(make([]int64, 3), []int64{math.MinInt64, math.MaxInt64, -1}, sel)
		}, 0},
		{"abs32", func(sel []int32) error {
			return CheckedAbsV(make([]int32, 3), []int32{-math.MaxInt32, math.MinInt32, 0}, sel)
		}, 1},
		{"narrow", func(sel []int32) error {
			return CheckedNarrowV(make([]int32, 3), []int64{math.MinInt32, math.MaxInt32, 3000000000}, sel)
		}, 2},
		{"narrow-low", func(sel []int32) error {
			return CheckedNarrowV(make([]int32, 3), []int64{-2147483649, 0, 1}, sel)
		}, 0},
		{"trunc32", func(sel []int32) error {
			return CheckedTruncV(make([]int32, 3), []float64{-2147483648.9, 1e300, 2147483647.9}, sel)
		}, 1},
		{"trunc64-nan", func(sel []int32) error {
			return CheckedTruncV(make([]int64, 3), []float64{-9223372036854775808, 0.5, math.NaN()}, sel)
		}, 2},
		{"trunc64-inf", func(sel []int32) error {
			return CheckedTruncV(make([]int64, 3), []float64{math.Inf(-1), -0.0, 1}, sel)
		}, 0},
		{"trunc64-high", func(sel []int32) error {
			return CheckedTruncV(make([]int64, 3), []float64{1, 9223372036854775808, 2}, sel)
		}, 1},
		{"div64", func(sel []int32) error {
			return CheckedDivVV(make([]int64, 3), []int64{-9, math.MinInt64, math.MinInt64}, []int64{-1, -1, 1}, sel)
		}, 1},
		{"div32", func(sel []int32) error {
			return CheckedDivVV(make([]int32, 3), []int32{math.MinInt32, math.MinInt32 + 1, -7}, []int32{-1, -1, -1}, sel)
		}, 0},
		{"date-add", func(sel []int32) error {
			return DateAddDaysVC(make([]int32, 3), []int32{math.MinInt32, 0, 1}, math.MaxInt32, sel)
		}, 2},
		{"date-add-vv", func(sel []int32) error {
			return DateAddDaysVV(make([]int32, 3), []int32{0, 0, 5}, []int64{math.MinInt32, math.MinInt64, math.MaxInt32 - 5}, sel)
		}, 1},
		{"add-months", func(sel []int32) error {
			return DateAddMonthsVC(make([]int32, 3), []int32{0, math.MaxInt32, math.MinInt32}, 1, sel)
		}, 1},
		{"add-months-vv", func(sel []int32) error {
			return DateAddMonthsVV(make([]int32, 3), []int32{0, 5, 0}, []int64{-12, 1 << 31, 12}, sel)
		}, 1},
	}
	for _, c := range checks {
		var pe *PosError
		if err := c.run(nil); !errors.As(err, &pe) || !errors.Is(err, ErrOverflow) || pe.Pos != c.bad {
			t.Errorf("%s: got %v, want overflow at %d", c.name, err, c.bad)
		}
		var others []int32
		for i := int32(0); i < 3; i++ {
			if int(i) != c.bad {
				others = append(others, i)
			}
		}
		if err := c.run(others); err != nil {
			t.Errorf("%s: unselected overflow reported: %v", c.name, err)
		}
		if err := c.run([]int32{int32(c.bad)}); !errors.As(err, &pe) || pe.Pos != 0 {
			t.Errorf("%s under a selection: got %v, want overflow at 0", c.name, err)
		}
	}
	dst := make([]int64, 2)
	if err := CheckedNegV(dst, []int64{-3, math.MaxInt64}, nil); err != nil || dst[0] != 3 || dst[1] != -math.MaxInt64 {
		t.Fatalf("neg: %v %v", dst, err)
	}
	if err := CheckedAbsV(dst, []int64{-3, 4}, nil); err != nil || dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("abs: %v %v", dst, err)
	}
	d32 := make([]int32, 2)
	if err := CheckedTruncV(d32, []float64{-2.9, 2.9}, nil); err != nil || d32[0] != -2 || d32[1] != 2 {
		t.Fatalf("trunc: %v %v", d32, err)
	}
}

func TestCheckedMod(t *testing.T) {
	dst := make([]int64, 2)
	if err := CheckedModVV(dst, []int64{10, 7}, []int64{3, 4}, nil); err != nil || dst[0] != 1 || dst[1] != 3 {
		t.Fatalf("mod: %v %v", dst, err)
	}
	if err := CheckedModVV(dst, []int64{10, 7}, []int64{3, 0}, nil); !errors.Is(err, ErrDivByZero) {
		t.Fatal("mod0 missed")
	}
	if err := CheckedModVV(dst, []int64{10, 7}, []int64{3, 0}, []int32{0}); err != nil {
		t.Fatal("mod sel")
	}
}

func TestPosErrorFormat(t *testing.T) {
	e := &PosError{Err: ErrOverflow, Pos: 7}
	if e.Error() != "arithmetic overflow at row offset 7" {
		t.Fatalf("format: %q", e.Error())
	}
}
