package expr

import (
	"fmt"

	"vectorwise/internal/types"
)

// NULL decomposition of expressions (claim C6). The kernel is
// NULL-oblivious: a NULLable logical column reaches it as a value column,
// holding an in-band safe value at NULL positions, plus a BOOL indicator
// column. SplitNulls rewrites a logical expression over such columns into
// the pair of NULL-free expressions that compute its value and its
// indicator; the rewriter applies it to every plan expression, and Fold to
// every constant.

// SplitNulls returns the (value, indicator) expressions of e. Logical column
// i reads physical column val[i], and its indicator ind[i] (-1: the column
// is never NULL). The indicator is the constant FALSE for never-NULL
// results.
func SplitNulls(e Expr, val, ind []int) (Expr, Expr, error) {
	d := nullSplitter{val: val, ind: ind}
	return d.split(e)
}

type nullSplitter struct {
	val, ind []int
}

func (d nullSplitter) split(e Expr) (Expr, Expr, error) {
	switch t := e.(type) {
	case *Const:
		if t.Val.Null {
			return &Const{Val: types.SafeValue(t.Val.Kind)}, CBool(true), nil
		}
		return t, CBool(false), nil
	case *ColRef:
		val := Col(d.val[t.Idx], t.Name, t.T.NotNull())
		if d.ind[t.Idx] < 0 {
			return val, CBool(false), nil
		}
		return val, Col(d.ind[t.Idx], t.Name+"$null", types.Bool), nil
	case *Call:
		return d.splitCall(t)
	}
	return nil, nil, fmt.Errorf("expr: cannot decompose expression %T", e)
}

func (d nullSplitter) splitCall(c *Call) (Expr, Expr, error) {
	switch c.Fn {
	case "isnull":
		_, ind, err := d.split(c.Args[0])
		if err != nil {
			return nil, nil, err
		}
		return ind, CBool(false), nil
	case "isnotnull":
		_, ind, err := d.split(c.Args[0])
		if err != nil {
			return nil, nil, err
		}
		return Not(ind), CBool(false), nil
	case "ifnull", "coalesce":
		av, ai, err := d.split(c.Args[0])
		if err != nil {
			return nil, nil, err
		}
		bv, bi, err := d.split(c.Args[1])
		if err != nil {
			return nil, nil, err
		}
		if IsFalse(ai) {
			return av, ai, nil
		}
		val, err := TryCall("if", ai, bv, av)
		if err != nil {
			return nil, nil, err
		}
		return val, And(ai, bi), nil
	case "nullif":
		av, ai, err := d.split(c.Args[0])
		if err != nil {
			return nil, nil, err
		}
		bv, bi, err := d.split(c.Args[1])
		if err != nil {
			return nil, nil, err
		}
		eq, err := TryCall("=", av, bv)
		if err != nil {
			return nil, nil, err
		}
		eq3 := And(eq, And(Not(ai), Not(bi)))
		return av, orE(ai, eq3), nil
	case "and":
		av, ai, err := d.split(c.Args[0])
		if err != nil {
			return nil, nil, err
		}
		bv, bi, err := d.split(c.Args[1])
		if err != nil {
			return nil, nil, err
		}
		if IsFalse(ai) && IsFalse(bi) {
			return And(av, bv), CBool(false), nil
		}
		// Known-false dominates NULL: result NULL iff some side unknown
		// and no side is known false.
		aKnownFalse := And(Not(av), Not(ai))
		bKnownFalse := And(Not(bv), Not(bi))
		val := And(av, bv)
		ind := And(orE(ai, bi), Not(orE(aKnownFalse, bKnownFalse)))
		return val, ind, nil
	case "or":
		av, ai, err := d.split(c.Args[0])
		if err != nil {
			return nil, nil, err
		}
		bv, bi, err := d.split(c.Args[1])
		if err != nil {
			return nil, nil, err
		}
		if IsFalse(ai) && IsFalse(bi) {
			return orE(av, bv), CBool(false), nil
		}
		aKnownTrue := And(av, Not(ai))
		bKnownTrue := And(bv, Not(bi))
		val := orE(aKnownTrue, bKnownTrue)
		ind := And(orE(ai, bi), Not(val))
		return val, ind, nil
	case "not":
		av, ai, err := d.split(c.Args[0])
		if err != nil {
			return nil, nil, err
		}
		return Not(av), ai, nil
	case "if":
		cv, ci, err := d.split(c.Args[0])
		if err != nil {
			return nil, nil, err
		}
		tv, ti, err := d.split(c.Args[1])
		if err != nil {
			return nil, nil, err
		}
		ev, ei, err := d.split(c.Args[2])
		if err != nil {
			return nil, nil, err
		}
		cond := And(cv, Not(ci)) // NULL condition selects the else branch
		val, err := TryCall("if", cond, tv, ev)
		if err != nil {
			return nil, nil, err
		}
		var ind Expr
		if IsFalse(ti) && IsFalse(ei) {
			ind = CBool(false)
		} else {
			ind, err = TryCall("if", cond, ti, ei)
			if err != nil {
				return nil, nil, err
			}
		}
		return val, ind, nil
	default:
		// Strict functions: apply over values, OR the indicators.
		vals := make([]Expr, len(c.Args))
		var ind Expr = CBool(false)
		for i, a := range c.Args {
			v, ai, err := d.split(a)
			if err != nil {
				return nil, nil, err
			}
			vals[i] = v
			ind = orE(ind, ai)
		}
		// A NULL operand reaches the kernel as its in-band safe value, 0: a
		// checked division would fail on a row whose result is NULL anyway.
		// There, divide by 1 — also by a non-zero constant divisor, so that
		// the in-band quotient a later checked step reads is the one the
		// same divisor gives as a column.
		if isDivision(c.Fn) && !IsFalse(ind) {
			one := litOf(vals[1].Type().Kind, 1)
			divisor, err := TryCall("if", ind, one, vals[1])
			if err != nil {
				return nil, nil, err
			}
			vals[1] = divisor
		}
		val, err := TryCall(c.Fn, vals...)
		if err != nil {
			return nil, nil, err
		}
		return val, ind, nil
	}
}

// litOf is the constant v of kind k.
func litOf(k types.Kind, v int64) Expr {
	switch k {
	case types.KindInt32:
		return CInt32(int32(v))
	case types.KindFloat64:
		return CFloat(float64(v))
	default:
		return CInt(v)
	}
}

func isDivision(fn string) bool { return fn == "/" || fn == "%" || fn == "mod" }

// Boolean expression builders with constant short-circuiting. A constant
// that decides the result on the left drops the right operand: the right
// operand runs only on the rows its left leaves undecided, so over a column
// it would not run either. A deciding constant on the right drops the left
// operand only if that operand cannot fail: over a column it would run, and
// its error with it, so a fold must run it too.

// IsFalse reports whether e is the constant FALSE.
func IsFalse(e Expr) bool {
	c, ok := e.(*Const)
	return ok && c.Val.Kind == types.KindBool && !c.Val.Null && !c.Val.Bool()
}

func isTrue(e Expr) bool {
	c, ok := e.(*Const)
	return ok && c.Val.Kind == types.KindBool && !c.Val.Null && c.Val.Bool()
}

// And builds a AND b.
func And(a, b Expr) Expr {
	switch {
	case isTrue(a):
		return b
	case IsFalse(a):
		return a
	case isTrue(b):
		return a
	case IsFalse(b) && !mayFail(a):
		return b
	}
	return NewCall("and", a, b)
}

func orE(a, b Expr) Expr {
	switch {
	case IsFalse(a):
		return b
	case isTrue(a):
		return a
	case IsFalse(b):
		return a
	case isTrue(b) && !mayFail(a):
		return b
	}
	return NewCall("or", a, b)
}

// mayFail reports whether evaluating e can raise a runtime error: checked
// arithmetic, negation, absolute value, a narrowing cast or date
// arithmetic.
func mayFail(e Expr) bool {
	fails := false
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*Call); ok {
			switch c.Fn {
			case "+", "-", "*", "/", "%", "mod", "neg", "abs", "cast_int32", "cast_int64", "date_add", "add_months":
				fails = true
			}
		}
		return !fails
	})
	return fails
}

// Not builds NOT a, folding constants and double negation.
func Not(a Expr) Expr {
	switch {
	case IsFalse(a):
		return CBool(true)
	case isTrue(a):
		return CBool(false)
	}
	if c, ok := a.(*Call); ok && c.Fn == "not" {
		return c.Args[0]
	}
	return NewCall("not", a)
}
