package expr

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

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

func evalBoth(t *testing.T, e Expr, b *vec.Batch) (*vec.Vector, []types.Value) {
	t.Helper()
	ev, err := Compile(e, testKinds)
	if err != nil {
		t.Fatalf("compile %s: %v", e, err)
	}
	v, err := ev.Eval(b)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	rows := make([]types.Value, b.Rows())
	for i := 0; i < b.Rows(); i++ {
		rv, err := EvalRow(e, b.GetRow(i))
		if err != nil {
			t.Fatalf("evalrow %s: %v", e, err)
		}
		rows[i] = rv
	}
	return v, rows
}

// assertAgree checks vectorized result equals row-interpreter result on
// every selected position.
func assertAgree(t *testing.T, e Expr, b *vec.Batch) {
	t.Helper()
	v, rows := evalBoth(t, e, b)
	for i := 0; i < b.Rows(); i++ {
		p := b.RowIndex(i)
		got := v.Get(p)
		want := rows[i]
		if got.String() != want.String() {
			t.Fatalf("%s row %d: vectorized %v, row-interp %v", e, i, got, want)
		}
	}
}

func TestArithAgreement(t *testing.T) {
	b := makeBatch(100)
	exprs := []Expr{
		NewCall("+", col(0), col(1)),
		NewCall("-", col(0), col(1)),
		NewCall("*", col(0), CInt(3)),
		NewCall("+", CInt(100), col(1)),
		NewCall("-", CInt(100), col(1)),
		NewCall("*", CInt(2), col(0)),
		NewCall("+", col(2), CFloat(1.5)),
		NewCall("*", col(2), col(2)),
		NewCall("-", col(2), col(2)),
		NewCall("/", col(2), CFloat(2)),
		NewCall("+", NewCall("*", col(0), CInt(2)), col(1)),
		NewCall("neg", col(0)),
		NewCall("abs", NewCall("-", col(1), CInt(3))),
		NewCall("sign", NewCall("-", col(1), CInt(3))),
		NewCall("min2", col(0), col(1)),
		NewCall("max2", col(0), col(1)),
	}
	for _, e := range exprs {
		assertAgree(t, e, b)
	}
}

func TestArithWithSelection(t *testing.T) {
	b := makeBatch(50)
	b.Sel = []int32{0, 7, 13, 49}
	assertAgree(t, NewCall("+", col(0), col(1)), b)
	assertAgree(t, NewCall("*", col(2), CFloat(3)), b)
}

func TestIntDivision(t *testing.T) {
	b := makeBatch(10)
	e := NewCall("/", col(0), CInt(2))
	assertAgree(t, e, b)
	// Division by zero from data: col1 has zeros (i%7==0).
	ev, err := Compile(NewCall("/", col(0), col(1)), testKinds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(b); !errors.Is(err, primitives.ErrDivByZero) {
		t.Fatalf("expected div0, got %v", err)
	}
	// Mod too.
	evm, _ := Compile(NewCall("%", col(0), col(1)), testKinds)
	if _, err := evm.Eval(b); !errors.Is(err, primitives.ErrDivByZero) {
		t.Fatalf("expected mod0, got %v", err)
	}
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

func TestCmpAgreement(t *testing.T) {
	b := makeBatch(64)
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		assertAgree(t, NewCall(op, col(0), col(1)), b)
		assertAgree(t, NewCall(op, col(0), CInt(30)), b)
		assertAgree(t, NewCall(op, CInt(30), col(0)), b)
		assertAgree(t, NewCall(op, col(3), CStr("beta")), b)
		assertAgree(t, NewCall(op, col(2), CFloat(10)), b)
	}
	assertAgree(t, NewCall("=", col(5), CBool(true)), b)
	assertAgree(t, NewCall("<>", col(5), CBool(false)), b)
}

func TestLogicalIfBetween(t *testing.T) {
	b := makeBatch(40)
	gt := NewCall(">", col(0), CInt(10))
	lt := NewCall("<", col(0), CInt(30))
	assertAgree(t, NewCall("and", gt, lt), b)
	assertAgree(t, NewCall("or", gt, lt), b)
	assertAgree(t, NewCall("not", gt), b)
	assertAgree(t, NewCall("if", gt, col(0), col(1)), b)
	assertAgree(t, NewCall("if", gt, CStr("big"), CStr("small")), b)
	assertAgree(t, NewCall("between", col(0), CInt(5), CInt(15)), b)
	assertAgree(t, NewCall("between", col(0), col(1), CInt(15)), b)
}

// Each branch of an if runs only on the rows that take it: 10 / col1 is
// never computed where col1 is 0, so neither the value nor the filter fails,
// with or without an incoming selection, nested or not.
func TestIfEvaluatesOnlyTakenBranch(t *testing.T) {
	b := makeBatch(30) // col1 = i % 7: a zero every seventh row
	nonZero := NewCall("<>", col(1), CInt(0))
	safe := NewCall("if", nonZero, NewCall("/", CInt(10), col(1)), CInt(-1))
	nested := NewCall("if", NewCall(">", col(0), CInt(20)),
		NewCall("if", nonZero, NewCall("%", col(0), col(1)), CInt(0)), safe)
	for _, sel := range [][]int32{nil, {0, 3, 7, 8, 14, 29}, {7, 14}, {}} {
		b.Sel = sel
		for _, e := range []Expr{safe, nested} {
			assertAgree(t, e, b)
			f, err := CompileFilter(NewCall(">", e, CInt(2)), testKinds)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Apply(b); err != nil {
				t.Fatalf("filter on %s under %v: %v", e, sel, err)
			}
		}
	}
	// Without the guard the division fails.
	b.Sel = nil
	ev, _ := Compile(NewCall("if", CBool(true), NewCall("/", CInt(10), col(1)), CInt(-1)), testKinds)
	if _, err := ev.Eval(b); !errors.Is(err, primitives.ErrDivByZero) {
		t.Fatalf("the taken branch divides by zero, got %v", err)
	}
}

func TestCasts(t *testing.T) {
	b := makeBatch(20)
	assertAgree(t, NewCall("cast_float64", col(0)), b)
	assertAgree(t, NewCall("cast_int32", col(0)), b)
	assertAgree(t, NewCall("cast_int64", col(2)), b)
	assertAgree(t, NewCall("cast_string", col(0)), b)
	assertAgree(t, NewCall("cast_string", col(4)), b)
	assertAgree(t, NewCall("cast_int64", col(5)), b)
}

func TestStringFuncs(t *testing.T) {
	b := makeBatch(20)
	assertAgree(t, NewCall("upper", col(3)), b)
	assertAgree(t, NewCall("lower", NewCall("upper", col(3))), b)
	assertAgree(t, NewCall("length", col(3)), b)
	assertAgree(t, NewCall("||", col(3), CStr("!")), b)
	assertAgree(t, NewCall("||", CStr(">"), col(3)), b)
	assertAgree(t, NewCall("||", col(3), col(3)), b)
	assertAgree(t, NewCall("substr", col(3), CInt(2), CInt(3)), b)
	assertAgree(t, NewCall("substr", col(3), col(1), CInt(2)), b)
	assertAgree(t, NewCall("replace", col(3), CStr("a"), CStr("A")), b)
	assertAgree(t, NewCall("position", col(3), CStr("et")), b)
	assertAgree(t, NewCall("lpad", col(3), CInt(8), CStr("*")), b)
	assertAgree(t, NewCall("rpad", col(3), CInt(8), CStr("*")), b)
	assertAgree(t, NewCall("like", col(3), CStr("%et%")), b)
	assertAgree(t, NewCall("starts_with", col(3), CStr("al")), b)
	assertAgree(t, NewCall("ends_with", col(3), CStr("ta")), b)
	assertAgree(t, NewCall("contains", col(3), CStr("mm")), b)
	assertAgree(t, NewCall("trim", NewCall("||", CStr("  x "), col(3))), b)
}

func TestDateFuncs(t *testing.T) {
	b := makeBatch(30)
	assertAgree(t, NewCall("year", col(4)), b)
	assertAgree(t, NewCall("month", col(4)), b)
	assertAgree(t, NewCall("day", col(4)), b)
	assertAgree(t, NewCall("quarter", col(4)), b)
	assertAgree(t, NewCall("dayofweek", col(4)), b)
	assertAgree(t, NewCall("date_add", col(4), CInt(30)), b)
	assertAgree(t, NewCall("date_add", col(4), col(1)), b)
	assertAgree(t, NewCall("add_months", col(4), CInt(3)), b)
	assertAgree(t, NewCall("date_diff", col(4), CDate(18000)), b)
	assertAgree(t, NewCall("+", col(4), CInt(5)), b)
	assertAgree(t, NewCall("-", col(4), CInt(5)), b)
	assertAgree(t, NewCall("-", col(4), CDate(18000)), b)
}

func TestMathFuncs(t *testing.T) {
	b := makeBatch(20)
	absF := NewCall("abs", col(2))
	assertAgree(t, NewCall("sqrt", absF), b)
	assertAgree(t, NewCall("floor", col(2)), b)
	assertAgree(t, NewCall("ceil", col(2)), b)
	assertAgree(t, NewCall("round", col(2), CInt(0)), b)
	assertAgree(t, NewCall("power", col(2), CFloat(2)), b)
	assertAgree(t, NewCall("power", col(2), col(2)), b)
	assertAgree(t, NewCall("exp", NewCall("*", col(2), CFloat(0.01))), b)
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

func TestFilterMatchesInterpreter(t *testing.T) {
	b := makeBatch(200)
	preds := []Expr{
		NewCall("=", col(1), CInt(3)),
		NewCall("and", NewCall(">", col(0), CInt(20)), NewCall("<", col(0), CInt(60))),
		NewCall("or", NewCall("<", col(0), CInt(5)), NewCall(">", col(0), CInt(190))),
		NewCall("not", NewCall("=", col(1), CInt(0))),
		NewCall("between", col(0), CInt(17), CInt(23)),
		NewCall("like", col(3), CStr("%a")),
		NewCall("and",
			NewCall("or", NewCall("=", col(3), CStr("beta")), NewCall("=", col(1), CInt(2))),
			NewCall(">=", col(2), CFloat(10))),
		NewCall("=", col(5), CBool(true)),
		NewCall(">", NewCall("+", col(0), col(1)), CInt(50)),
		NewCall("between", col(0), col(1), CInt(10)),
	}
	for _, p := range preds {
		f, err := CompileFilter(p, testKinds)
		if err != nil {
			t.Fatalf("compile filter %s: %v", p, err)
		}
		sel, err := f.Apply(b)
		if err != nil {
			t.Fatalf("apply %s: %v", p, err)
		}
		want := map[int32]bool{}
		for i := 0; i < b.Rows(); i++ {
			v, err := EvalRow(p, b.GetRow(i))
			if err != nil {
				t.Fatal(err)
			}
			if !v.Null && v.Bool() {
				want[int32(b.RowIndex(i))] = true
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("%s: got %d rows want %d", p, len(sel), len(want))
		}
		for _, i := range sel {
			if !want[i] {
				t.Fatalf("%s: unexpected row %d", p, i)
			}
		}
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

func TestRowNullPropagation(t *testing.T) {
	nullInt := types.NewNull(types.KindInt64)
	row := []types.Value{nullInt, types.NewInt64(5)}
	a := Col(0, "a", types.Int64.Null())
	b := Col(1, "b", types.Int64)
	v, err := EvalRow(NewCall("+", a, b), row)
	if err != nil || !v.Null {
		t.Fatalf("null + x: %v %v", v, err)
	}
	v, _ = EvalRow(NewCall("isnull", a), row)
	if !v.Bool() {
		t.Fatal("isnull(null) = false")
	}
	v, _ = EvalRow(NewCall("coalesce", a, b), row)
	if v.Null || v.Int64() != 5 {
		t.Fatalf("coalesce: %v", v)
	}
	// Three-valued logic: NULL AND false = false, NULL OR true = true.
	nb := Col(0, "a", types.Bool.Null())
	rowB := []types.Value{types.NewNull(types.KindBool)}
	v, _ = EvalRow(NewCall("and", nb, CBool(false)), rowB)
	if v.Null || v.Bool() {
		t.Fatalf("NULL AND false: %v", v)
	}
	v, _ = EvalRow(NewCall("or", nb, CBool(true)), rowB)
	if v.Null || !v.Bool() {
		t.Fatalf("NULL OR true: %v", v)
	}
	v, _ = EvalRow(NewCall("and", nb, CBool(true)), rowB)
	if !v.Null {
		t.Fatalf("NULL AND true: %v", v)
	}
	v, _ = EvalRow(NewCall("nullif", b, CInt(5)), []types.Value{nullInt, types.NewInt64(5)})
	if !v.Null {
		t.Fatalf("nullif equal: %v", v)
	}
}

// Property: for random int vectors, the compiled (a*2+b) agrees with the
// row interpreter everywhere.
func TestVectorizedRowAgreementProperty(t *testing.T) {
	kinds := []types.Kind{types.KindInt64, types.KindInt64}
	e := NewCall("+", NewCall("*", Col(0, "a", types.Int64), CInt(2)), Col(1, "b", types.Int64))
	ev, err := Compile(e, kinds)
	if err != nil {
		t.Fatal(err)
	}
	f := func(av, bv []int32) bool {
		n := min(len(av), len(bv))
		if n == 0 {
			return true
		}
		b := vec.NewBatch(kinds, n)
		b.SetLen(n)
		for i := 0; i < n; i++ {
			b.Vecs[0].I64[i] = int64(av[i])
			b.Vecs[1].I64[i] = int64(bv[i])
		}
		v, err := ev.Eval(b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			want, _ := EvalRow(e, b.GetRow(i))
			if v.I64[i] != want.I64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
