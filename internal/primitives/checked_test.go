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
