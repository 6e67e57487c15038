package expr

import (
	"fmt"

	"vectorwise/internal/types"
)

// ResolveFunc type-checks a call of fn over the given argument types and
// returns the result type. It is the single function catalog shared by the
// binder (logical typing), the vectorized compiler and the row interpreter,
// so the three layers cannot drift apart.
//
// Nullability: a call's result is nullable iff any argument is nullable
// (exceptions: isnull/isnotnull/coalesce/ifnull, which exist to eliminate
// nullability). The kernel never sees nullable types — the rewriter strips
// them — but the logical layers track them for correctness.
func ResolveFunc(fn string, args []types.T) (types.T, error) {
	nullable := false
	for _, a := range args {
		nullable = nullable || a.Nullable
	}
	fail := func() (types.T, error) {
		return types.T{}, fmt.Errorf("expr: no function %s%v", fn, typeList(args))
	}
	out := func(k types.Kind) (types.T, error) {
		return types.T{Kind: k, Nullable: nullable}, nil
	}
	switch fn {
	case "+", "-", "*":
		if len(args) != 2 {
			return fail()
		}
		// DATE ± integer is day arithmetic.
		if fn != "*" && args[0].Kind == types.KindDate && args[1].Kind.Integral() {
			return out(types.KindDate)
		}
		if fn == "-" && args[0].Kind == types.KindDate && args[1].Kind == types.KindDate {
			return out(types.KindInt64)
		}
		k := types.CommonNumeric(args[0].Kind, args[1].Kind)
		if k == types.KindInvalid {
			return fail()
		}
		return out(k)
	case "/":
		if len(args) != 2 {
			return fail()
		}
		k := types.CommonNumeric(args[0].Kind, args[1].Kind)
		if k == types.KindInvalid {
			return fail()
		}
		return out(k) // integer division stays integral, SQL-style
	case "%", "mod":
		if len(args) != 2 || !args[0].Kind.Integral() || !args[1].Kind.Integral() {
			return fail()
		}
		return out(types.CommonNumeric(args[0].Kind, args[1].Kind))
	case "neg", "abs", "sign":
		if len(args) != 1 || !args[0].Kind.Numeric() {
			return fail()
		}
		return out(args[0].Kind)
	case "=", "<>", "<", "<=", ">", ">=":
		if len(args) != 2 || !types.Comparable(args[0].Kind, args[1].Kind) {
			return fail()
		}
		return out(types.KindBool)
	case "and", "or":
		if len(args) != 2 || args[0].Kind != types.KindBool || args[1].Kind != types.KindBool {
			return fail()
		}
		return out(types.KindBool)
	case "not":
		if len(args) != 1 || args[0].Kind != types.KindBool {
			return fail()
		}
		return out(types.KindBool)
	case "if":
		if len(args) != 3 || args[0].Kind != types.KindBool || args[1].Kind != args[2].Kind {
			return fail()
		}
		return out(args[1].Kind)
	case "between":
		if len(args) != 3 || !types.Comparable(args[0].Kind, args[1].Kind) || !types.Comparable(args[0].Kind, args[2].Kind) {
			return fail()
		}
		return out(types.KindBool)
	case "cast_int32":
		if len(args) != 1 || !(args[0].Kind.Numeric() || args[0].Kind == types.KindDate) {
			return fail()
		}
		return out(types.KindInt32)
	case "cast_int64":
		if len(args) != 1 || !(args[0].Kind.Numeric() || args[0].Kind == types.KindDate || args[0].Kind == types.KindBool) {
			return fail()
		}
		return out(types.KindInt64)
	case "cast_float64":
		if len(args) != 1 || !args[0].Kind.Numeric() {
			return fail()
		}
		return out(types.KindFloat64)
	case "cast_string":
		if len(args) != 1 {
			return fail()
		}
		return out(types.KindString)
	case "upper", "lower", "trim", "ltrim", "rtrim":
		if len(args) != 1 || args[0].Kind != types.KindString {
			return fail()
		}
		return out(types.KindString)
	case "length":
		if len(args) != 1 || args[0].Kind != types.KindString {
			return fail()
		}
		return out(types.KindInt64)
	case "||", "concat":
		if len(args) != 2 || args[0].Kind != types.KindString || args[1].Kind != types.KindString {
			return fail()
		}
		return out(types.KindString)
	case "substr":
		if len(args) != 3 || args[0].Kind != types.KindString || !args[1].Kind.Integral() || !args[2].Kind.Integral() {
			return fail()
		}
		return out(types.KindString)
	case "replace":
		if len(args) != 3 || args[0].Kind != types.KindString || args[1].Kind != types.KindString || args[2].Kind != types.KindString {
			return fail()
		}
		return out(types.KindString)
	case "position":
		if len(args) != 2 || args[0].Kind != types.KindString || args[1].Kind != types.KindString {
			return fail()
		}
		return out(types.KindInt64)
	case "lpad", "rpad":
		if len(args) != 3 || args[0].Kind != types.KindString || !args[1].Kind.Integral() || args[2].Kind != types.KindString {
			return fail()
		}
		return out(types.KindString)
	case "like", "starts_with", "ends_with", "contains":
		if len(args) != 2 || args[0].Kind != types.KindString || args[1].Kind != types.KindString {
			return fail()
		}
		return out(types.KindBool)
	case "year", "month", "day", "quarter", "dayofweek":
		if len(args) != 1 || args[0].Kind != types.KindDate {
			return fail()
		}
		return out(types.KindInt32)
	case "date_add":
		if len(args) != 2 || args[0].Kind != types.KindDate || !args[1].Kind.Integral() {
			return fail()
		}
		return out(types.KindDate)
	case "add_months":
		if len(args) != 2 || args[0].Kind != types.KindDate || !args[1].Kind.Integral() {
			return fail()
		}
		return out(types.KindDate)
	case "date_diff":
		if len(args) != 2 || args[0].Kind != types.KindDate || args[1].Kind != types.KindDate {
			return fail()
		}
		return out(types.KindInt64)
	case "sqrt", "ln", "exp", "floor", "ceil":
		if len(args) != 1 || args[0].Kind != types.KindFloat64 {
			return fail()
		}
		return out(types.KindFloat64)
	case "round":
		if len(args) != 2 || args[0].Kind != types.KindFloat64 || !args[1].Kind.Integral() {
			return fail()
		}
		return out(types.KindFloat64)
	case "power":
		if len(args) != 2 || args[0].Kind != types.KindFloat64 || args[1].Kind != types.KindFloat64 {
			return fail()
		}
		return out(types.KindFloat64)
	case "min2", "max2":
		if len(args) != 2 || args[0].Kind != args[1].Kind {
			return fail()
		}
		return out(args[0].Kind)
	// NULL-handling functions. These exist at the logical level only:
	// SplitNulls lowers them onto indicator columns before kernel
	// compilation. The row engine interprets them directly.
	case "isnull", "isnotnull":
		if len(args) != 1 {
			return fail()
		}
		return types.Bool, nil // never nullable
	case "coalesce", "ifnull":
		if len(args) != 2 || args[0].Kind != args[1].Kind {
			return fail()
		}
		return types.T{Kind: args[0].Kind, Nullable: args[0].Nullable && args[1].Nullable}, nil
	case "nullif":
		if len(args) != 2 || !types.Comparable(args[0].Kind, args[1].Kind) {
			return fail()
		}
		return types.T{Kind: args[0].Kind, Nullable: true}, nil
	}
	return types.T{}, fmt.Errorf("expr: unknown function %q", fn)
}

func typeList(args []types.T) string {
	s := "("
	for i, a := range args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}

// Promote wraps e in a cast call if its kind differs from want; the helper
// the binder uses to make arithmetic operand types equal before building
// Call nodes.
func Promote(e Expr, want types.Kind) Expr {
	if e.Type().Kind == want {
		return e
	}
	switch want {
	case types.KindInt32:
		return NewCall("cast_int32", e)
	case types.KindInt64:
		return NewCall("cast_int64", e)
	case types.KindFloat64:
		return NewCall("cast_float64", e)
	case types.KindString:
		return NewCall("cast_string", e)
	}
	panic(fmt.Sprintf("expr: cannot promote %v to %v", e.Type(), want))
}
