package rowengine

import (
	"fmt"
	"math"
	"strings"

	"vectorwise/internal/expr"
	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
)

// EvalRow interprets an expression for a single row of boxed values: the
// tuple-at-a-time model of the "classic" engine. Every call re-dispatches on
// node and value kinds — exactly the interpretation overhead the vectorized
// kernel amortizes, which is what experiment E1 measures. It serves only
// this package's Volcano operators, the baseline of that comparison and of
// the differential tests; queries, constant folding and INSERT values all
// run expr.Compile programs.
//
// Unlike the kernel path, the row interpreter is NULL-aware: SQL
// three-valued logic is implemented here directly, since the classic engine
// does not decompose NULLable columns.
func EvalRow(e expr.Expr, row []types.Value) (types.Value, error) {
	switch n := e.(type) {
	case *expr.Const:
		return n.Val, nil
	case *expr.ColRef:
		if n.Idx < 0 || n.Idx >= len(row) {
			return types.Value{}, fmt.Errorf("rowengine: row column %d out of range", n.Idx)
		}
		return row[n.Idx], nil
	case *expr.Call:
		return evalRowCall(n, row)
	}
	return types.Value{}, fmt.Errorf("rowengine: cannot interpret node %T", e)
}

func evalRowCall(c *expr.Call, row []types.Value) (types.Value, error) {
	// Special forms with non-strict argument evaluation.
	switch c.Fn {
	case "and":
		return evalAnd(c, row)
	case "or":
		return evalOr(c, row)
	case "if":
		cond, err := EvalRow(c.Args[0], row)
		if err != nil {
			return types.Value{}, err
		}
		if !cond.Null && cond.Bool() {
			return EvalRow(c.Args[1], row)
		}
		return EvalRow(c.Args[2], row)
	case "coalesce", "ifnull":
		a, err := EvalRow(c.Args[0], row)
		if err != nil {
			return types.Value{}, err
		}
		if !a.Null {
			return a, nil
		}
		return EvalRow(c.Args[1], row)
	case "isnull":
		a, err := EvalRow(c.Args[0], row)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewBool(a.Null), nil
	case "isnotnull":
		a, err := EvalRow(c.Args[0], row)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewBool(!a.Null), nil
	}
	// Strict functions: evaluate arguments, propagate NULL.
	args := make([]types.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := EvalRow(a, row)
		if err != nil {
			return types.Value{}, err
		}
		args[i] = v
	}
	for _, a := range args {
		if a.Null {
			return types.NewNull(c.T.Kind), nil
		}
	}
	return applyRowFunc(c.Fn, c.T, args)
}

func evalAnd(c *expr.Call, row []types.Value) (types.Value, error) {
	a, err := EvalRow(c.Args[0], row)
	if err != nil {
		return types.Value{}, err
	}
	if !a.Null && !a.Bool() {
		return types.NewBool(false), nil
	}
	b, err := EvalRow(c.Args[1], row)
	if err != nil {
		return types.Value{}, err
	}
	switch {
	case !b.Null && !b.Bool():
		return types.NewBool(false), nil
	case a.Null || b.Null:
		return types.NewNull(types.KindBool), nil
	default:
		return types.NewBool(true), nil
	}
}

func evalOr(c *expr.Call, row []types.Value) (types.Value, error) {
	a, err := EvalRow(c.Args[0], row)
	if err != nil {
		return types.Value{}, err
	}
	if !a.Null && a.Bool() {
		return types.NewBool(true), nil
	}
	b, err := EvalRow(c.Args[1], row)
	if err != nil {
		return types.Value{}, err
	}
	switch {
	case !b.Null && b.Bool():
		return types.NewBool(true), nil
	case a.Null || b.Null:
		return types.NewNull(types.KindBool), nil
	default:
		return types.NewBool(false), nil
	}
}

func applyRowFunc(fn string, t types.T, args []types.Value) (types.Value, error) {
	switch fn {
	case "+", "-", "*", "/", "%", "mod":
		return rowArith(fn, t.Kind, args[0], args[1])
	case "=", "<>", "<", "<=", ">", ">=":
		return rowCmp(fn, args[0], args[1]), nil
	case "not":
		return types.NewBool(!args[0].Bool()), nil
	case "between":
		x, lo, hi := args[0], args[1], args[2]
		return types.NewBool(types.Compare(x, lo) >= 0 && types.Compare(x, hi) <= 0), nil
	case "neg":
		return rowArith("-", t.Kind, types.Value{Kind: t.Kind}, args[0])
	case "abs":
		v := args[0]
		if v.Kind == types.KindFloat64 {
			return types.NewFloat64(math.Abs(v.F64)), nil
		}
		if v.I64 < 0 {
			return rowArith("-", t.Kind, types.Value{Kind: t.Kind}, v)
		}
		return v, nil
	case "sign":
		v := args[0]
		var s int64
		switch {
		case v.AsFloat() > 0:
			s = 1
		case v.AsFloat() < 0:
			s = -1
		}
		out := types.Value{Kind: t.Kind}
		if t.Kind == types.KindFloat64 {
			out.F64 = float64(s)
		} else {
			out.I64 = s
		}
		return out, nil
	case "cast_int32":
		i, err := rowToInt(args[0], math.MinInt32, math.MaxInt32)
		return types.NewInt32(int32(i)), err
	case "cast_int64":
		i, err := rowToInt(args[0], math.MinInt64, math.MaxInt64)
		return types.NewInt64(i), err
	case "cast_float64":
		return types.NewFloat64(args[0].AsFloat()), nil
	case "cast_string":
		return types.NewString(args[0].String()), nil
	case "upper":
		return types.NewString(strings.ToUpper(args[0].Str)), nil
	case "lower":
		return types.NewString(strings.ToLower(args[0].Str)), nil
	case "trim":
		return types.NewString(strings.TrimSpace(args[0].Str)), nil
	case "ltrim":
		return types.NewString(strings.TrimLeft(args[0].Str, " ")), nil
	case "rtrim":
		return types.NewString(strings.TrimRight(args[0].Str, " ")), nil
	case "length":
		return types.NewInt64(int64(len(args[0].Str))), nil
	case "||", "concat":
		return types.NewString(args[0].Str + args[1].Str), nil
	case "substr":
		return types.NewString(rowSubstr(args[0].Str, args[1].AsInt(), args[2].AsInt())), nil
	case "replace":
		return types.NewString(strings.ReplaceAll(args[0].Str, args[1].Str, args[2].Str)), nil
	case "position":
		return types.NewInt64(int64(strings.Index(args[0].Str, args[1].Str)) + 1), nil
	case "lpad", "rpad":
		return types.NewString(rowPad(args[0].Str, int(args[1].AsInt()), args[2].Str, fn == "lpad")), nil
	case "like":
		m := primitives.CompileLike(args[1].Str)
		return types.NewBool(m.Match(args[0].Str)), nil
	case "starts_with":
		return types.NewBool(strings.HasPrefix(args[0].Str, args[1].Str)), nil
	case "ends_with":
		return types.NewBool(strings.HasSuffix(args[0].Str, args[1].Str)), nil
	case "contains":
		return types.NewBool(strings.Contains(args[0].Str, args[1].Str)), nil
	case "year":
		return types.NewInt32(types.DateYear(args[0].Int32())), nil
	case "month":
		return types.NewInt32(types.DateMonth(args[0].Int32())), nil
	case "day":
		return types.NewInt32(types.DateDay(args[0].Int32())), nil
	case "quarter":
		return types.NewInt32(types.DateQuarter(args[0].Int32())), nil
	case "dayofweek":
		return types.NewInt32(types.DateDayOfWeek(args[0].Int32())), nil
	case "date_add":
		return rowDateAdd(args[0].I64, args[1].AsInt())
	case "add_months":
		d, ok := types.DateAddMonths(args[0].Int32(), args[1].AsInt())
		if !ok {
			return types.Value{}, primitives.ErrOverflow
		}
		return types.NewDate(d), nil
	case "date_diff":
		return types.NewInt64(int64(args[0].Int32()) - int64(args[1].Int32())), nil
	case "sqrt":
		return types.NewFloat64(math.Sqrt(args[0].F64)), nil
	case "floor":
		return types.NewFloat64(math.Floor(args[0].F64)), nil
	case "ceil":
		return types.NewFloat64(math.Ceil(args[0].F64)), nil
	case "ln":
		return types.NewFloat64(math.Log(args[0].F64)), nil
	case "exp":
		return types.NewFloat64(math.Exp(args[0].F64)), nil
	case "round":
		scale := math.Pow(10, float64(args[1].AsInt()))
		return types.NewFloat64(math.Round(args[0].F64*scale) / scale), nil
	case "power":
		return types.NewFloat64(math.Pow(args[0].F64, args[1].F64)), nil
	case "min2":
		if types.Compare(args[0], args[1]) <= 0 {
			return args[0], nil
		}
		return args[1], nil
	case "max2":
		if types.Compare(args[0], args[1]) >= 0 {
			return args[0], nil
		}
		return args[1], nil
	case "nullif":
		if types.Compare(args[0], args[1]) == 0 {
			return types.NewNull(args[0].Kind), nil
		}
		return args[0], nil
	}
	return types.Value{}, fmt.Errorf("rowengine: no row implementation of %q", fn)
}

func rowArith(fn string, kind types.Kind, a, b types.Value) (types.Value, error) {
	// DATE arithmetic.
	if a.Kind == types.KindDate {
		switch {
		case fn == "-" && b.Kind == types.KindDate:
			return types.NewInt64(a.I64 - b.I64), nil
		case fn == "+":
			return rowDateAdd(a.I64, b.AsInt())
		case fn == "-":
			return rowDateAdd(a.I64, -b.AsInt())
		}
	}
	if kind == types.KindFloat64 {
		x, y := a.AsFloat(), b.AsFloat()
		switch fn {
		case "+":
			return types.NewFloat64(x + y), nil
		case "-":
			return types.NewFloat64(x - y), nil
		case "*":
			return types.NewFloat64(x * y), nil
		case "/":
			if y == 0 {
				return types.Value{}, primitives.ErrDivByZero
			}
			return types.NewFloat64(x / y), nil
		}
		return types.Value{}, fmt.Errorf("rowengine: float %q", fn)
	}
	x, y := a.AsInt(), b.AsInt()
	var r int64
	switch fn {
	case "+":
		r = x + y
		if (x^r)&(y^r) < 0 {
			return types.Value{}, primitives.ErrOverflow
		}
	case "-":
		r = x - y
		if (x^y)&(x^r) < 0 {
			return types.Value{}, primitives.ErrOverflow
		}
	case "*":
		r = x * y
		if x != 0 && (r/x != y || (x == -1 && y == math.MinInt64)) {
			return types.Value{}, primitives.ErrOverflow
		}
	case "/":
		if y == 0 {
			return types.Value{}, primitives.ErrDivByZero
		}
		if x == math.MinInt64 && y == -1 {
			return types.Value{}, primitives.ErrOverflow
		}
		r = x / y
	case "%", "mod":
		if y == 0 {
			return types.Value{}, primitives.ErrDivByZero
		}
		r = x % y
	default:
		return types.Value{}, fmt.Errorf("rowengine: int %q", fn)
	}
	if kind == types.KindInt32 {
		if r != int64(int32(r)) {
			return types.Value{}, primitives.ErrOverflow
		}
		return types.NewInt32(int32(r)), nil
	}
	return types.NewInt64(r), nil
}

// rowDateAdd adds n days to the day number d, failing where the date leaves
// the int32 day range. A sum that wraps in int64 lands far outside it.
func rowDateAdd(d, n int64) (types.Value, error) {
	s := d + n
	if s != int64(int32(s)) {
		return types.Value{}, primitives.ErrOverflow
	}
	return types.NewDate(int32(s)), nil
}

// rowToInt converts a numeric value to an integer in [lo, hi], truncating a
// DOUBLE toward zero; NaN and values outside the range overflow.
func rowToInt(v types.Value, lo, hi int64) (int64, error) {
	if v.Kind == types.KindFloat64 {
		f := math.Trunc(v.F64)
		if !(f >= -math.Ldexp(1, 63) && f < math.Ldexp(1, 63)) {
			return 0, primitives.ErrOverflow
		}
	}
	i := v.AsInt()
	if i < lo || i > hi {
		return 0, primitives.ErrOverflow
	}
	return i, nil
}

func rowCmp(fn string, a, b types.Value) types.Value {
	c := types.Compare(a, b)
	var r bool
	switch fn {
	case "=":
		r = c == 0
	case "<>":
		r = c != 0
	case "<":
		r = c < 0
	case "<=":
		r = c <= 0
	case ">":
		r = c > 0
	case ">=":
		r = c >= 0
	}
	return types.NewBool(r)
}

func rowSubstr(s string, start, length int64) string {
	if length < 0 {
		length = 0
	}
	from := start - 1
	if from < 0 {
		length += from
		from = 0
		if length < 0 {
			length = 0
		}
	}
	if from >= int64(len(s)) {
		return ""
	}
	to := int64(len(s))
	if length < to-from {
		to = from + length
	}
	return s[from:to]
}

func rowPad(s string, width int, pad string, left bool) string {
	if width <= len(s) {
		return s[:max(width, 0)]
	}
	if pad == "" {
		return s
	}
	var b strings.Builder
	need := width - len(s)
	for b.Len() < need {
		rem := need - b.Len()
		if rem >= len(pad) {
			b.WriteString(pad)
		} else {
			b.WriteString(pad[:rem])
		}
	}
	if left {
		return b.String() + s
	}
	return s + b.String()
}
