package expr

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// foldGen generates well-typed constant expressions over every kind and
// function family, with NULLs, NaN, ±0, ±Inf and integer extremes among the
// literals.
type foldGen struct{ r *rand.Rand }

var (
	genInt32s = []int32{0, 1, -1, 2, 7, -7, 100, 46341, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1}
	genInt64s = []int64{0, 1, -1, 3, -3, 1000, 3000000000, -2147483649, 1 << 31,
		3037000500, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	genFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2.5, 1e300, -1e300, math.NaN(),
		math.Inf(1), math.Inf(-1), 3e9, 9.3e18, -9.3e18, 5e-324, math.MaxFloat64}
	genStrings = []string{"", "abc", " x ", "Hello", "a%b_c", "ünï", "abcabc", "b"}
	genDates   = []int32{0, 1, -1, 365, 10000, 18000, 20000, math.MaxInt32, math.MinInt32}
	genWidths  = []int32{-3, -1, 0, 1, 2, 5, 8}
	genKinds   = []types.Kind{types.KindBool, types.KindInt32, types.KindInt64,
		types.KindFloat64, types.KindString, types.KindDate}
)

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

func (g *foldGen) lit(k types.Kind) *Const {
	if g.r.Intn(8) == 0 {
		return &Const{Val: types.NewNull(k)}
	}
	switch k {
	case types.KindBool:
		return CBool(g.r.Intn(2) == 0)
	case types.KindInt32:
		return CInt32(pick(g.r, genInt32s))
	case types.KindInt64:
		return CInt(pick(g.r, genInt64s))
	case types.KindFloat64:
		return CFloat(pick(g.r, genFloats))
	case types.KindString:
		return CStr(pick(g.r, genStrings))
	default:
		return CDate(pick(g.r, genDates))
	}
}

func (g *foldGen) call(fn string, args ...Expr) Expr {
	c, err := TryCall(fn, args...)
	if err != nil {
		panic(err)
	}
	return c
}

// gen returns an expression of kind k at most depth calls deep.
func (g *foldGen) gen(k types.Kind, depth int) Expr {
	if depth == 0 || g.r.Intn(5) == 0 {
		return g.lit(k)
	}
	d := depth - 1
	sub := func(k types.Kind) Expr { return g.gen(k, d) }
	anyKind := func() types.Kind { return pick(g.r, genKinds) }
	intKind := func() types.Kind { return pick(g.r, []types.Kind{types.KindInt32, types.KindInt64}) }
	ordKind := func() types.Kind { return pick(g.r, genKinds[1:]) } // every kind but BOOLEAN
	// Families every kind has: CASE, the NULL functions, min/max.
	switch g.r.Intn(6) {
	case 0:
		return g.call("if", sub(types.KindBool), sub(k), sub(k))
	case 1:
		return g.call(pick(g.r, []string{"coalesce", "ifnull"}), sub(k), sub(k))
	case 2:
		return g.call("nullif", sub(k), sub(k))
	case 3:
		if k != types.KindBool {
			return g.call(pick(g.r, []string{"min2", "max2"}), sub(k), sub(k))
		}
	}
	switch k {
	case types.KindBool:
		switch g.r.Intn(7) {
		case 0:
			x := anyKind()
			op := pick(g.r, []string{"=", "<>", "<", "<=", ">", ">="})
			if x == types.KindBool {
				op = pick(g.r, []string{"=", "<>"})
			}
			return g.call(op, sub(x), sub(x))
		case 1:
			return g.call(pick(g.r, []string{"and", "or"}), sub(k), sub(k))
		case 2:
			return g.call("not", sub(k))
		case 3:
			x := ordKind()
			return g.call("between", sub(x), sub(x), sub(x))
		case 4:
			fn := pick(g.r, []string{"like", "starts_with", "ends_with", "contains"})
			return g.call(fn, sub(types.KindString), g.lit(types.KindString))
		default:
			return g.call(pick(g.r, []string{"isnull", "isnotnull"}), sub(anyKind()))
		}
	case types.KindInt32, types.KindInt64:
		switch g.r.Intn(5) {
		case 0:
			return g.call(pick(g.r, []string{"+", "-", "*", "/", "%", "mod"}), sub(k), sub(k))
		case 1:
			return g.call(pick(g.r, []string{"neg", "abs", "sign"}), sub(k))
		case 2:
			if k == types.KindInt32 {
				from := pick(g.r, []types.Kind{types.KindInt32, types.KindInt64, types.KindFloat64, types.KindDate})
				return g.call("cast_int32", sub(from))
			}
			from := pick(g.r, []types.Kind{types.KindInt32, types.KindInt64, types.KindFloat64, types.KindDate, types.KindBool})
			return g.call("cast_int64", sub(from))
		case 3:
			if k == types.KindInt32 {
				return g.call(pick(g.r, []string{"year", "month", "day", "quarter", "dayofweek"}), sub(types.KindDate))
			}
			switch g.r.Intn(4) {
			case 0:
				return g.call("length", sub(types.KindString))
			case 1:
				return g.call("position", sub(types.KindString), g.lit(types.KindString))
			case 2:
				return g.call("date_diff", sub(types.KindDate), sub(types.KindDate))
			default:
				return g.call("-", sub(types.KindDate), sub(types.KindDate))
			}
		}
		return g.call(pick(g.r, []string{"+", "-", "*", "/"}), sub(k), sub(k))
	case types.KindFloat64:
		switch g.r.Intn(6) {
		case 0:
			return g.call(pick(g.r, []string{"+", "-", "*", "/"}), sub(k), sub(k))
		case 1:
			return g.call(pick(g.r, []string{"neg", "abs", "sign"}), sub(k))
		case 2:
			from := pick(g.r, []types.Kind{types.KindInt32, types.KindInt64, types.KindFloat64})
			return g.call("cast_float64", sub(from))
		case 3:
			return g.call(pick(g.r, []string{"sqrt", "floor", "ceil", "ln", "exp"}), sub(k))
		case 4:
			return g.call("round", sub(k), g.lit(intKind()))
		default:
			return g.call("power", sub(k), sub(k))
		}
	case types.KindString:
		switch g.r.Intn(6) {
		case 0:
			return g.call(pick(g.r, []string{"upper", "lower", "trim", "ltrim", "rtrim"}), sub(k))
		case 1:
			return g.call(pick(g.r, []string{"||", "concat"}), sub(k), sub(k))
		case 2:
			return g.call("substr", sub(k), sub(intKind()), sub(intKind()))
		case 3:
			return g.call("replace", sub(k), g.lit(k), g.lit(k))
		case 4:
			// Widths stay small: a pad allocates the width it is given.
			width := Expr(CInt32(pick(g.r, genWidths)))
			switch g.r.Intn(8) {
			case 0:
				width = &Const{Val: types.NewNull(types.KindInt32)}
			case 1:
				width = g.call("neg", width) // folded before the kernel sees it
			}
			return g.call(pick(g.r, []string{"lpad", "rpad"}), sub(k), width, g.lit(k))
		default:
			return g.call("cast_string", sub(anyKind()))
		}
	default: // DATE
		switch g.r.Intn(3) {
		case 0:
			return g.call(pick(g.r, []string{"date_add", "add_months"}), sub(k), sub(intKind()))
		default:
			return g.call(pick(g.r, []string{"+", "-"}), sub(k), sub(intKind()))
		}
	}
}

// lifted is e with every literal the compiler accepts as a column moved into
// a column of a one-row table.
type lifted struct {
	e    Expr
	vals []types.Value
}

func lift(e Expr) lifted {
	var l lifted
	var walk func(e Expr) Expr
	walk = func(e Expr) Expr {
		switch n := e.(type) {
		case *Const:
			l.vals = append(l.vals, n.Val)
			return Col(len(l.vals)-1, "", types.T{Kind: n.Val.Kind, Nullable: n.Val.Null})
		case *Call:
			args := make([]Expr, len(n.Args))
			for i, a := range n.Args {
				if literalOperand(n.Fn, i) {
					args[i] = a
				} else {
					args[i] = walk(a)
				}
			}
			return &Call{Fn: n.Fn, Args: args, T: n.T}
		}
		return e
	}
	l.e = walk(e)
	return l
}

// eval runs the lifted expression the way a query runs it over a column:
// NULL-split against the table's physical layout (values, then the
// indicators of the NULL columns), then compiled and evaluated, value
// first.
func (l lifted) eval() (types.Value, error) {
	n := len(l.vals)
	valCol, indCol := make([]int, n), make([]int, n)
	kinds := make([]types.Kind, n)
	for i, v := range l.vals {
		valCol[i], indCol[i], kinds[i] = i, -1, v.Kind
		if v.Null {
			indCol[i] = len(kinds)
			kinds = append(kinds, types.KindBool)
		}
	}
	b := vec.NewBatch(kinds, 1)
	b.SetLen(1)
	for i, v := range l.vals {
		if v.Null {
			b.Vecs[i].Set(0, types.SafeValue(v.Kind))
			b.Vecs[indCol[i]].Bool[0] = true
		} else {
			b.Vecs[i].Set(0, v)
		}
	}
	val, ind, err := SplitNulls(l.e, valCol, indCol)
	if err != nil {
		return types.Value{}, err
	}
	var out [2]types.Value
	for i, e := range []Expr{val, ind} {
		ev, err := Compile(e, kinds)
		if err != nil {
			return types.Value{}, err
		}
		v, err := ev.Eval(b)
		if err != nil {
			return types.Value{}, err
		}
		out[i] = v.Get(0)
	}
	if out[1].Bool() {
		return types.NewNull(l.e.Type().Kind), nil
	}
	return out[0], nil
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, primitives.ErrOverflow):
		return "overflow"
	case errors.Is(err, primitives.ErrDivByZero):
		return "division by zero"
	}
	return "error"
}

func sameValue(a, b types.Value) bool {
	if a.Null || b.Null || a.Kind != b.Kind {
		return a.Null == b.Null && a.Kind == b.Kind
	}
	if a.Kind == types.KindFloat64 {
		return math.IsNaN(a.F64) && math.IsNaN(b.F64) || math.Float64bits(a.F64) == math.Float64bits(b.F64)
	}
	return a == b
}

// checkFold compares Fold(e) with the evaluation of e's lifted form, and
// FoldConstants with both.
func checkFold(t *testing.T, e Expr) {
	t.Helper()
	got, gotErr := Fold(e)
	want, wantErr := lift(e).eval()
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("%s: Fold error %v, over columns %v", e, gotErr, wantErr)
	}
	if gotErr == nil && !sameValue(got, want) {
		t.Fatalf("%s: Fold %#v, over columns %#v", e, got, want)
	}
	switch f := FoldConstants(e).(type) {
	case *Const:
		if gotErr != nil || !sameValue(f.Val, got) {
			t.Fatalf("%s: FoldConstants gave %v, Fold %v (%v)", e, f, got, gotErr)
		}
	default:
		if gotErr == nil || f != e {
			t.Fatalf("%s: FoldConstants gave %v, Fold %v (%v)", e, f, got, gotErr)
		}
	}
}

func TestFoldMatchesColumnEvaluation(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		g := &foldGen{r: rand.New(rand.NewSource(seed))}
		checkFold(t, g.gen(pick(g.r, genKinds), 1+int(seed%4)))
	}
}

func FuzzFold(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 1 << 40} {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		g := &foldGen{r: rand.New(rand.NewSource(seed))}
		checkFold(t, g.gen(pick(g.r, genKinds), int(depth%6)))
	})
}

// The constant and column forms of the statements that used to disagree.
func TestFoldEdgeCases(t *testing.T) {
	cases := []struct {
		e    Expr
		want string // value, or the error class
	}{
		{NewCall("cast_int32", CFloat(1e300)), "overflow"},
		{NewCall("cast_int32", CInt(3000000000)), "overflow"},
		{NewCall("cast_int64", CFloat(math.NaN())), "overflow"},
		{NewCall("cast_int64", CFloat(-9.3e18)), "overflow"},
		{NewCall("cast_int32", CFloat(-2147483648.5)), "-2147483648"},
		{NewCall("neg", NewCall("-", NewCall("neg", CInt(math.MaxInt64)), CInt(1))), "overflow"},
		{NewCall("abs", CInt32(math.MinInt32)), "overflow"},
		{NewCall("neg", CInt(5)), "-5"},
		{NewCall("lpad", CStr("abc"), CInt32(-1), CStr("x")), ""},
		{NewCall("rpad", CStr("abc"), CInt32(0), CStr("x")), ""},
		{NewCall("substr", CStr("hello"), CInt(2), CInt(math.MaxInt64)), "ello"},
		{NewCall("if", CBool(false), NewCall("/", CFloat(1), CFloat(0)), CFloat(2)), "2"},
		{NewCall("+", &Const{Val: types.NewNull(types.KindInt64)}, CInt(1)), "NULL"},
		{NewCall("/", CInt(1), CInt(0)), "division by zero"},
	}
	for _, c := range cases {
		checkFold(t, c.e)
		v, err := Fold(c.e)
		got := errClass(err)
		if err == nil {
			got = v.String()
		}
		if got != c.want {
			t.Errorf("Fold(%s) = %s, want %s", c.e, got, c.want)
		}
	}
}
