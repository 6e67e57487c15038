package primitives

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestAddVV(t *testing.T) {
	a := []int64{1, 2, 3, 4}
	b := []int64{10, 20, 30, 40}
	dst := make([]int64, 4)
	AddVV(dst, a, b, nil)
	for i := range dst {
		if dst[i] != a[i]+b[i] {
			t.Fatalf("dst[%d] = %d", i, dst[i])
		}
	}
	// Selected variant leaves unselected slots alone.
	dst2 := make([]int64, 4)
	AddVV(dst2, a, b, []int32{1, 3})
	if dst2[0] != 0 || dst2[1] != 22 || dst2[2] != 0 || dst2[3] != 44 {
		t.Fatalf("sel add: %v", dst2)
	}
}

func TestMapVCShapes(t *testing.T) {
	a := []float64{1, 2, 3}
	dst := make([]float64, 3)
	AddVC(dst, a, 0.5, nil)
	if dst[2] != 3.5 {
		t.Fatal("AddVC")
	}
	SubVC(dst, a, 1, nil)
	if dst[0] != 0 {
		t.Fatal("SubVC")
	}
	SubCV(dst, 10, a, nil)
	if dst[2] != 7 {
		t.Fatal("SubCV")
	}
	MulVC(dst, a, 2, nil)
	if dst[1] != 4 {
		t.Fatal("MulVC")
	}
}

func TestSubMulDiv(t *testing.T) {
	a := []int32{10, 20, 30}
	b := []int32{1, 2, 3}
	dst := make([]int32, 3)
	SubVV(dst, a, b, nil)
	if dst[2] != 27 {
		t.Fatal("SubVV")
	}
	MulVV(dst, a, b, nil)
	if dst[1] != 40 {
		t.Fatal("MulVV")
	}
	f := []float64{6, 9}
	g := []float64{2, 3}
	fd := make([]float64, 2)
	DivVVF(fd, f, g, nil)
	if fd[0] != 3 || fd[1] != 3 {
		t.Fatal("DivVVF")
	}
}

func TestNegAbsMinMax(t *testing.T) {
	a := []int64{-3, 5, 0}
	dst := make([]int64, 3)
	NegV(dst, a, nil)
	if dst[0] != 3 || dst[1] != -5 {
		t.Fatal("NegV")
	}
	AbsV(dst, a, nil)
	if dst[0] != 3 || dst[1] != 5 || dst[2] != 0 {
		t.Fatal("AbsV")
	}
	b := []int64{1, 9, -2}
	MinVV(dst, a, b, nil)
	if dst[0] != -3 || dst[1] != 5 || dst[2] != -2 {
		t.Fatal("MinVV")
	}
	MaxVV(dst, a, b, nil)
	if dst[0] != 1 || dst[1] != 9 || dst[2] != 0 {
		t.Fatal("MaxVV")
	}
}

func TestCastAndIfThenElse(t *testing.T) {
	a := []int32{1, 2, 3}
	f := make([]float64, 3)
	CastNum(f, a, nil)
	if f[2] != 3.0 {
		t.Fatal("CastNum widen")
	}
	back := make([]int64, 3)
	CastNum(back, f, nil)
	if back[1] != 2 {
		t.Fatal("CastNum narrow")
	}
	// if-then-else is a selection of the candidates by the condition, its
	// complement, and a merge of the two branches.
	cond := []bool{true, false, true}
	x := []int64{1, 2, 3}
	y := []int64{10, 20, 30}
	out := make([]int64, 3)
	tr := SelTrue(nil, cond, nil, 3)
	fa := SelComplement(nil, tr, nil, 3)
	if fmt.Sprint(tr, fa) != "[0 2] [1]" {
		t.Fatalf("SelTrue, SelComplement: %v %v", tr, fa)
	}
	MergeSel(out, x, y, tr, fa)
	if out[0] != 1 || out[1] != 20 || out[2] != 3 {
		t.Fatal("MergeSel")
	}
	// An empty half is a selection of no rows, never nil (every row).
	tr = SelTrue(tr, cond, []int32{0, 2}, 3)
	if fa = SelComplement(fa, tr, []int32{0, 2}, 3); len(tr) != 2 || fa == nil || len(fa) != 0 {
		t.Fatalf("SelTrue, SelComplement under a selection: %v %v", tr, fa)
	}
	if tr, fa = SelTrue(nil, nil, []int32{}, 0), SelComplement(nil, nil, []int32{}, 0); tr == nil || fa == nil {
		t.Fatal("a selection of no candidates returned nil")
	}
}

func TestMod(t *testing.T) {
	a := []int64{10, 11, 12}
	b := []int64{3, 3, 5}
	dst := make([]int64, 3)
	ModVV(dst, a, b, nil)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 2 {
		t.Fatal("ModVV")
	}
}

// Property: AddVV with identity selection equals AddVV with nil selection.
func TestSelEquivalenceProperty(t *testing.T) {
	f := func(a, b []int64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		d1 := make([]int64, n)
		d2 := make([]int64, n)
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
		AddVV(d1, a, b, nil)
		AddVV(d2, a, b, sel)
		for i := range d1 {
			if d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
