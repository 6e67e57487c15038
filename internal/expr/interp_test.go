package expr_test

// The vectorized compiler against the tuple-at-a-time interpreter of the
// row engine, the baseline it replaces. rowengine imports expr, so these
// tests live in the external test package.

import (
	"errors"
	"testing"
	"testing/quick"

	"vectorwise/internal/expr"
	"vectorwise/internal/primitives"
	"vectorwise/internal/rowengine"
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

func col(i int) *expr.ColRef {
	t := types.T{Kind: testKinds[i]}
	return expr.Col(i, "", t)
}

func evalBoth(t *testing.T, e expr.Expr, b *vec.Batch) (*vec.Vector, []types.Value) {
	t.Helper()
	ev, err := expr.Compile(e, testKinds)
	if err != nil {
		t.Fatalf("compile %s: %v", e, err)
	}
	v, err := ev.Eval(b)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	rows := make([]types.Value, b.Rows())
	for i := 0; i < b.Rows(); i++ {
		rv, err := rowengine.EvalRow(e, b.GetRow(i))
		if err != nil {
			t.Fatalf("evalrow %s: %v", e, err)
		}
		rows[i] = rv
	}
	return v, rows
}

// assertAgree checks vectorized result equals row-interpreter result on
// every selected position.
func assertAgree(t *testing.T, e expr.Expr, b *vec.Batch) {
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
	exprs := []expr.Expr{
		expr.NewCall("+", col(0), col(1)),
		expr.NewCall("-", col(0), col(1)),
		expr.NewCall("*", col(0), expr.CInt(3)),
		expr.NewCall("+", expr.CInt(100), col(1)),
		expr.NewCall("-", expr.CInt(100), col(1)),
		expr.NewCall("*", expr.CInt(2), col(0)),
		expr.NewCall("+", col(2), expr.CFloat(1.5)),
		expr.NewCall("*", col(2), col(2)),
		expr.NewCall("-", col(2), col(2)),
		expr.NewCall("/", col(2), expr.CFloat(2)),
		expr.NewCall("+", expr.NewCall("*", col(0), expr.CInt(2)), col(1)),
		expr.NewCall("neg", col(0)),
		expr.NewCall("abs", expr.NewCall("-", col(1), expr.CInt(3))),
		expr.NewCall("sign", expr.NewCall("-", col(1), expr.CInt(3))),
		expr.NewCall("min2", col(0), col(1)),
		expr.NewCall("max2", col(0), col(1)),
	}
	for _, e := range exprs {
		assertAgree(t, e, b)
	}
}

func TestArithWithSelection(t *testing.T) {
	b := makeBatch(50)
	b.Sel = []int32{0, 7, 13, 49}
	assertAgree(t, expr.NewCall("+", col(0), col(1)), b)
	assertAgree(t, expr.NewCall("*", col(2), expr.CFloat(3)), b)
}

func TestIntDivision(t *testing.T) {
	b := makeBatch(10)
	e := expr.NewCall("/", col(0), expr.CInt(2))
	assertAgree(t, e, b)
	// Division by zero from data: col1 has zeros (i%7==0).
	ev, err := expr.Compile(expr.NewCall("/", col(0), col(1)), testKinds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(b); !errors.Is(err, primitives.ErrDivByZero) {
		t.Fatalf("expected div0, got %v", err)
	}
	// Mod too.
	evm, _ := expr.Compile(expr.NewCall("%", col(0), col(1)), testKinds)
	if _, err := evm.Eval(b); !errors.Is(err, primitives.ErrDivByZero) {
		t.Fatalf("expected mod0, got %v", err)
	}
}

func TestCmpAgreement(t *testing.T) {
	b := makeBatch(64)
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		assertAgree(t, expr.NewCall(op, col(0), col(1)), b)
		assertAgree(t, expr.NewCall(op, col(0), expr.CInt(30)), b)
		assertAgree(t, expr.NewCall(op, expr.CInt(30), col(0)), b)
		assertAgree(t, expr.NewCall(op, col(3), expr.CStr("beta")), b)
		assertAgree(t, expr.NewCall(op, col(2), expr.CFloat(10)), b)
	}
	assertAgree(t, expr.NewCall("=", col(5), expr.CBool(true)), b)
	assertAgree(t, expr.NewCall("<>", col(5), expr.CBool(false)), b)
}

func TestLogicalIfBetween(t *testing.T) {
	b := makeBatch(40)
	gt := expr.NewCall(">", col(0), expr.CInt(10))
	lt := expr.NewCall("<", col(0), expr.CInt(30))
	assertAgree(t, expr.NewCall("and", gt, lt), b)
	assertAgree(t, expr.NewCall("or", gt, lt), b)
	assertAgree(t, expr.NewCall("not", gt), b)
	assertAgree(t, expr.NewCall("if", gt, col(0), col(1)), b)
	assertAgree(t, expr.NewCall("if", gt, expr.CStr("big"), expr.CStr("small")), b)
	assertAgree(t, expr.NewCall("between", col(0), expr.CInt(5), expr.CInt(15)), b)
	assertAgree(t, expr.NewCall("between", col(0), col(1), expr.CInt(15)), b)
	for _, p := range decidedOnTheLeft() {
		assertAgree(t, p, b)
	}
}

// decidedOnTheLeft holds an AND and an OR whose right operand fails (a cast
// of 1e300 to INTEGER) on exactly the rows their left operand decides: col5
// is false where d = (col0 % 2) * 1e300 holds 1e300, and true where
// 1e300 - d does.
func decidedOnTheLeft() []expr.Expr {
	d := expr.NewCall("*", expr.NewCall("cast_float64", expr.NewCall("%", col(0), expr.CInt(2))), expr.CFloat(1e300))
	positive := func(x expr.Expr) expr.Expr {
		return expr.NewCall(">", expr.NewCall("cast_int32", x), expr.CInt32(0))
	}
	return []expr.Expr{
		expr.NewCall("and", col(5), positive(d)),
		expr.NewCall("or", col(5), positive(expr.NewCall("-", expr.CFloat(1e300), d))),
	}
}

// Each branch of an if runs only on the rows that take it: 10 / col1 is
// never computed where col1 is 0, so neither the value nor the filter fails,
// with or without an incoming selection, nested or not.
func TestIfEvaluatesOnlyTakenBranch(t *testing.T) {
	b := makeBatch(30) // col1 = i % 7: a zero every seventh row
	nonZero := expr.NewCall("<>", col(1), expr.CInt(0))
	safe := expr.NewCall("if", nonZero, expr.NewCall("/", expr.CInt(10), col(1)), expr.CInt(-1))
	nested := expr.NewCall("if", expr.NewCall(">", col(0), expr.CInt(20)),
		expr.NewCall("if", nonZero, expr.NewCall("%", col(0), col(1)), expr.CInt(0)), safe)
	for _, sel := range [][]int32{nil, {0, 3, 7, 8, 14, 29}, {7, 14}, {}} {
		b.Sel = sel
		for _, e := range []expr.Expr{safe, nested} {
			assertAgree(t, e, b)
			f, err := expr.CompileFilter(expr.NewCall(">", e, expr.CInt(2)), testKinds)
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
	ev, _ := expr.Compile(expr.NewCall("if", expr.CBool(true), expr.NewCall("/", expr.CInt(10), col(1)), expr.CInt(-1)), testKinds)
	if _, err := ev.Eval(b); !errors.Is(err, primitives.ErrDivByZero) {
		t.Fatalf("the taken branch divides by zero, got %v", err)
	}
}

func TestCasts(t *testing.T) {
	b := makeBatch(20)
	assertAgree(t, expr.NewCall("cast_float64", col(0)), b)
	assertAgree(t, expr.NewCall("cast_int32", col(0)), b)
	assertAgree(t, expr.NewCall("cast_int64", col(2)), b)
	assertAgree(t, expr.NewCall("cast_string", col(0)), b)
	assertAgree(t, expr.NewCall("cast_string", col(4)), b)
	assertAgree(t, expr.NewCall("cast_int64", col(5)), b)
}

func TestStringFuncs(t *testing.T) {
	b := makeBatch(20)
	assertAgree(t, expr.NewCall("upper", col(3)), b)
	assertAgree(t, expr.NewCall("lower", expr.NewCall("upper", col(3))), b)
	assertAgree(t, expr.NewCall("length", col(3)), b)
	assertAgree(t, expr.NewCall("||", col(3), expr.CStr("!")), b)
	assertAgree(t, expr.NewCall("||", expr.CStr(">"), col(3)), b)
	assertAgree(t, expr.NewCall("||", col(3), col(3)), b)
	assertAgree(t, expr.NewCall("substr", col(3), expr.CInt(2), expr.CInt(3)), b)
	assertAgree(t, expr.NewCall("substr", col(3), col(1), expr.CInt(2)), b)
	assertAgree(t, expr.NewCall("replace", col(3), expr.CStr("a"), expr.CStr("A")), b)
	assertAgree(t, expr.NewCall("position", col(3), expr.CStr("et")), b)
	assertAgree(t, expr.NewCall("lpad", col(3), expr.CInt(8), expr.CStr("*")), b)
	assertAgree(t, expr.NewCall("rpad", col(3), expr.CInt(8), expr.CStr("*")), b)
	assertAgree(t, expr.NewCall("like", col(3), expr.CStr("%et%")), b)
	assertAgree(t, expr.NewCall("starts_with", col(3), expr.CStr("al")), b)
	assertAgree(t, expr.NewCall("ends_with", col(3), expr.CStr("ta")), b)
	assertAgree(t, expr.NewCall("contains", col(3), expr.CStr("mm")), b)
	assertAgree(t, expr.NewCall("trim", expr.NewCall("||", expr.CStr("  x "), col(3))), b)
}

func TestDateFuncs(t *testing.T) {
	b := makeBatch(30)
	assertAgree(t, expr.NewCall("year", col(4)), b)
	assertAgree(t, expr.NewCall("month", col(4)), b)
	assertAgree(t, expr.NewCall("day", col(4)), b)
	assertAgree(t, expr.NewCall("quarter", col(4)), b)
	assertAgree(t, expr.NewCall("dayofweek", col(4)), b)
	assertAgree(t, expr.NewCall("date_add", col(4), expr.CInt(30)), b)
	assertAgree(t, expr.NewCall("date_add", col(4), col(1)), b)
	assertAgree(t, expr.NewCall("add_months", col(4), expr.CInt(3)), b)
	assertAgree(t, expr.NewCall("date_diff", col(4), expr.CDate(18000)), b)
	assertAgree(t, expr.NewCall("+", col(4), expr.CInt(5)), b)
	assertAgree(t, expr.NewCall("-", col(4), expr.CInt(5)), b)
	assertAgree(t, expr.NewCall("-", col(4), expr.CDate(18000)), b)
}

func TestMathFuncs(t *testing.T) {
	b := makeBatch(20)
	absF := expr.NewCall("abs", col(2))
	assertAgree(t, expr.NewCall("sqrt", absF), b)
	assertAgree(t, expr.NewCall("floor", col(2)), b)
	assertAgree(t, expr.NewCall("ceil", col(2)), b)
	assertAgree(t, expr.NewCall("round", col(2), expr.CInt(0)), b)
	assertAgree(t, expr.NewCall("power", col(2), expr.CFloat(2)), b)
	assertAgree(t, expr.NewCall("power", col(2), col(2)), b)
	assertAgree(t, expr.NewCall("exp", expr.NewCall("*", col(2), expr.CFloat(0.01))), b)
}

func TestFilterMatchesInterpreter(t *testing.T) {
	b := makeBatch(200)
	preds := []expr.Expr{
		expr.NewCall("=", col(1), expr.CInt(3)),
		expr.NewCall("and", expr.NewCall(">", col(0), expr.CInt(20)), expr.NewCall("<", col(0), expr.CInt(60))),
		expr.NewCall("or", expr.NewCall("<", col(0), expr.CInt(5)), expr.NewCall(">", col(0), expr.CInt(190))),
		expr.NewCall("not", expr.NewCall("=", col(1), expr.CInt(0))),
		expr.NewCall("between", col(0), expr.CInt(17), expr.CInt(23)),
		expr.NewCall("like", col(3), expr.CStr("%a")),
		expr.NewCall("and",
			expr.NewCall("or", expr.NewCall("=", col(3), expr.CStr("beta")), expr.NewCall("=", col(1), expr.CInt(2))),
			expr.NewCall(">=", col(2), expr.CFloat(10))),
		expr.NewCall("=", col(5), expr.CBool(true)),
		expr.NewCall(">", expr.NewCall("+", col(0), col(1)), expr.CInt(50)),
		expr.NewCall("between", col(0), col(1), expr.CInt(10)),
	}
	for _, p := range append(preds, decidedOnTheLeft()...) {
		f, err := expr.CompileFilter(p, testKinds)
		if err != nil {
			t.Fatalf("compile filter %s: %v", p, err)
		}
		sel, err := f.Apply(b)
		if err != nil {
			t.Fatalf("apply %s: %v", p, err)
		}
		want := map[int32]bool{}
		for i := 0; i < b.Rows(); i++ {
			v, err := rowengine.EvalRow(p, b.GetRow(i))
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

func TestRowNullPropagation(t *testing.T) {
	nullInt := types.NewNull(types.KindInt64)
	row := []types.Value{nullInt, types.NewInt64(5)}
	a := expr.Col(0, "a", types.Int64.Null())
	b := expr.Col(1, "b", types.Int64)
	v, err := rowengine.EvalRow(expr.NewCall("+", a, b), row)
	if err != nil || !v.Null {
		t.Fatalf("null + x: %v %v", v, err)
	}
	v, _ = rowengine.EvalRow(expr.NewCall("isnull", a), row)
	if !v.Bool() {
		t.Fatal("isnull(null) = false")
	}
	v, _ = rowengine.EvalRow(expr.NewCall("coalesce", a, b), row)
	if v.Null || v.Int64() != 5 {
		t.Fatalf("coalesce: %v", v)
	}
	// Three-valued logic: NULL AND false = false, NULL OR true = true.
	nb := expr.Col(0, "a", types.Bool.Null())
	rowB := []types.Value{types.NewNull(types.KindBool)}
	v, _ = rowengine.EvalRow(expr.NewCall("and", nb, expr.CBool(false)), rowB)
	if v.Null || v.Bool() {
		t.Fatalf("NULL AND false: %v", v)
	}
	v, _ = rowengine.EvalRow(expr.NewCall("or", nb, expr.CBool(true)), rowB)
	if v.Null || !v.Bool() {
		t.Fatalf("NULL OR true: %v", v)
	}
	v, _ = rowengine.EvalRow(expr.NewCall("and", nb, expr.CBool(true)), rowB)
	if !v.Null {
		t.Fatalf("NULL AND true: %v", v)
	}
	v, _ = rowengine.EvalRow(expr.NewCall("nullif", b, expr.CInt(5)), []types.Value{nullInt, types.NewInt64(5)})
	if !v.Null {
		t.Fatalf("nullif equal: %v", v)
	}
}

// Property: for random int vectors, the compiled (a*2+b) agrees with the
// row interpreter everywhere.
func TestVectorizedRowAgreementProperty(t *testing.T) {
	kinds := []types.Kind{types.KindInt64, types.KindInt64}
	e := expr.NewCall("+", expr.NewCall("*", expr.Col(0, "a", types.Int64), expr.CInt(2)), expr.Col(1, "b", types.Int64))
	ev, err := expr.Compile(e, kinds)
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
			want, _ := rowengine.EvalRow(e, b.GetRow(i))
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
