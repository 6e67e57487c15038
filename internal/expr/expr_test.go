package expr

import (
	"errors"
	"math"
	"testing"

	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// makeBatch builds a test batch: col0 int64, col1 int64, col2 float64,
// col3 string, col4 date(i32), col5 bool.
func makeBatch(n int) *vec.Batch {
	kinds := []types.Kind{types.KindInt64, types.KindInt64, types.KindFloat64,
		types.KindString, types.KindDate, types.KindBool}
	b := vec.NewBatch(kinds, n)
	b.SetLen(n)
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		b.Vecs[0].I64[i] = int64(i)
		b.Vecs[1].I64[i] = int64(i % 7)
		b.Vecs[2].F64[i] = float64(i) * 0.5
		b.Vecs[3].Str[i] = words[i%len(words)]
		b.Vecs[4].I32[i] = int32(18000 + i)
		b.Vecs[5].Bool[i] = i%2 == 0
	}
	return b
}

var testKinds = []types.Kind{types.KindInt64, types.KindInt64, types.KindFloat64,
	types.KindString, types.KindDate, types.KindBool}

func col(i int) *ColRef {
	t := types.T{Kind: testKinds[i]}
	return Col(i, "", t)
}

func TestCheckedOverflow(t *testing.T) {
	kinds := []types.Kind{types.KindInt64}
	b := vec.NewBatch(kinds, 4)
	b.SetLen(4)
	b.Vecs[0].I64[0] = 1
	b.Vecs[0].I64[1] = math.MaxInt64
	e := NewCall("+", Col(0, "x", types.Int64), CInt(1))
	ev, err := Compile(e, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(b); !errors.Is(err, primitives.ErrOverflow) {
		t.Fatal("checked arithmetic missed overflow")
	}
}

func TestFilterBasics(t *testing.T) {
	b := makeBatch(100)
	f, err := CompileFilter(NewCall(">", col(0), CInt(89)), testKinds)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := f.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 10 || sel[0] != 90 {
		t.Fatalf("sel: %v", sel)
	}
}

func TestFilterUnderSelection(t *testing.T) {
	b := makeBatch(100)
	b.Sel = []int32{0, 10, 20, 30, 40, 50}
	f, _ := CompileFilter(NewCall(">", col(0), CInt(25)), testKinds)
	sel, err := f.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 || sel[0] != 30 || sel[2] != 50 {
		t.Fatalf("sel: %v", sel)
	}
}

// NOT of a predicate every row of the first batch satisfies keeps nothing:
// the empty complement must not be read as "all rows".
func TestFilterNotOfAllTrueFirstBatch(t *testing.T) {
	b := makeBatch(100)
	f, err := CompileFilter(NewCall("not", NewCall(">=", col(0), CInt(0))), testKinds)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := f.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 0 {
		t.Fatalf("NOT(always true) selected %d rows, want none", len(sel))
	}
}

func TestFoldConstants(t *testing.T) {
	e := NewCall("+", CInt(2), NewCall("*", CInt(3), CInt(4)))
	folded := FoldConstants(e)
	c, ok := folded.(*Const)
	if !ok || c.Val.Int64() != 14 {
		t.Fatalf("folded: %v", folded)
	}
	// Non-const parts survive.
	e2 := NewCall("+", col(0), NewCall("*", CInt(3), CInt(4)))
	folded2 := FoldConstants(e2).(*Call)
	if _, ok := folded2.Args[1].(*Const); !ok {
		t.Fatalf("partial fold failed: %v", folded2)
	}
	// Runtime errors are not folded.
	e3 := NewCall("/", CInt(1), CInt(0))
	if _, ok := FoldConstants(e3).(*Const); ok {
		t.Fatal("div0 must not fold")
	}
}

func TestExprUtilities(t *testing.T) {
	e := NewCall("+", col(0), NewCall("*", col(2), CFloat(2)))
	cols := Cols(e)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Fatalf("cols: %v", cols)
	}
	shifted := ShiftCols(e, 3)
	if got := Cols(shifted); got[0] != 3 || got[1] != 5 {
		t.Fatalf("shift: %v", got)
	}
	remapped := RemapCols(e, map[int]int{0: 9, 2: 1})
	if got := Cols(remapped); got[0] != 9 || got[1] != 1 {
		t.Fatalf("remap: %v", got)
	}
	if !Equal(e, NewCall("+", col(0), NewCall("*", col(2), CFloat(2)))) {
		t.Fatal("Equal false negative")
	}
	if Equal(e, NewCall("+", col(0), col(2))) {
		t.Fatal("Equal false positive")
	}
	if e.String() != "($0 + ($2 * 2))" {
		t.Fatalf("string: %s", e.String())
	}
}

func TestResolveFuncErrors(t *testing.T) {
	if _, err := ResolveFunc("nosuch", nil); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, err := ResolveFunc("+", []types.T{types.String, types.Int64}); err == nil {
		t.Fatal("string + int accepted")
	}
	if _, err := ResolveFunc("upper", []types.T{types.Int64}); err == nil {
		t.Fatal("upper(int) accepted")
	}
	// Nullability propagates.
	tt, err := ResolveFunc("+", []types.T{types.Int64.Null(), types.Int64})
	if err != nil || !tt.Nullable {
		t.Fatalf("nullable propagation: %v %v", tt, err)
	}
	tt, err = ResolveFunc("isnull", []types.T{types.Int64.Null()})
	if err != nil || tt.Nullable {
		t.Fatalf("isnull must not be nullable: %v", tt)
	}
}

func TestPromote(t *testing.T) {
	e := Promote(col(0), types.KindFloat64)
	if e.Type().Kind != types.KindFloat64 {
		t.Fatal("promote to float")
	}
	same := Promote(col(0), types.KindInt64)
	if same != col(0) && same.Type().Kind != types.KindInt64 {
		t.Fatal("promote to same kind should be identity")
	}
}

func TestNullLiteralRejectedByKernel(t *testing.T) {
	e := &Call{Fn: "+", Args: []Expr{col(0), &Const{Val: types.NewNull(types.KindInt64)}}, T: types.Int64.Null()}
	if _, err := Compile(e, testKinds); err == nil {
		t.Fatal("kernel must reject NULL literals")
	}
}

func TestNullFuncsRejectedByKernel(t *testing.T) {
	e := &Call{Fn: "isnull", Args: []Expr{col(0)}, T: types.Bool}
	if _, err := Compile(e, testKinds); err == nil {
		t.Fatal("kernel must reject isnull")
	}
}
