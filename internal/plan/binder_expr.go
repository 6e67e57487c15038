package plan

import (
	"fmt"

	"vectorwise/internal/expr"
	"vectorwise/internal/sql"
	"vectorwise/internal/types"
)

// bindExpr lowers an AST expression into a typed expr tree over the scope's
// columns. hook (may be nil) gets first shot at every node — the aggregate
// scope uses it to capture group expressions and aggregate calls.
func (b *Binder) bindExpr(sc *scope, n sql.ExprNode, hook leafHook) (expr.Expr, error) {
	if hook != nil {
		if e, ok, err := hook(n); err != nil {
			return nil, err
		} else if ok {
			return e, nil
		}
	}
	switch e := n.(type) {
	case *sql.Lit:
		return &expr.Const{Val: e.Val}, nil
	case *sql.ColName:
		return sc.resolve(e.Table, e.Name)
	case *sql.UnOp:
		child, err := b.bindExpr(sc, e.E, hook)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-":
			return expr.TryCall("neg", child)
		case "not":
			return expr.TryCall("not", child)
		}
		return nil, fmt.Errorf("plan: unary %q", e.Op)
	case *sql.BinOp:
		return b.bindBinOp(sc, e, hook)
	case *sql.FuncCall:
		return b.bindFunc(sc, e, hook)
	case *sql.CaseExpr:
		return b.bindCase(sc, e, hook)
	case *sql.CastExpr:
		child, err := b.bindExpr(sc, e.E, hook)
		if err != nil {
			return nil, err
		}
		if isUntypedNull(child) {
			return &expr.Const{Val: types.NewNull(e.To.Kind)}, nil
		}
		if child.Type().Kind == e.To.Kind {
			return child, nil
		}
		return expr.Promote(child, e.To.Kind), nil
	case *sql.IsNullExpr:
		child, err := b.bindExpr(sc, e.E, hook)
		if err != nil {
			return nil, err
		}
		if isUntypedNull(child) {
			return expr.CBool(!e.Not), nil
		}
		fn := "isnull"
		if e.Not {
			fn = "isnotnull"
		}
		if !child.Type().Nullable {
			return expr.CBool(e.Not), nil
		}
		return expr.TryCall(fn, child)
	case *sql.BetweenExpr:
		x, err := b.bindExpr(sc, e.E, hook)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(sc, e.Lo, hook)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(sc, e.Hi, hook)
		if err != nil {
			return nil, err
		}
		x, lo, err = promotePair(x, lo)
		if err != nil {
			return nil, err
		}
		x, hi, err = promotePair(x, hi)
		if err != nil {
			return nil, err
		}
		// Re-promote lo in case x widened.
		x, lo, err = promotePair(x, lo)
		if err != nil {
			return nil, err
		}
		out, err := expr.TryCall("between", x, lo, hi)
		if err != nil {
			return nil, err
		}
		if e.Not {
			return expr.TryCall("not", out)
		}
		return out, nil
	case *sql.InExpr:
		if e.Sub != nil {
			return nil, fmt.Errorf("plan: IN subquery is only supported as a top-level WHERE conjunct")
		}
		lhs, err := b.bindExpr(sc, e.E, hook)
		if err != nil {
			return nil, err
		}
		var out expr.Expr
		for _, item := range e.List {
			rhs, err := b.bindExpr(sc, item, hook)
			if err != nil {
				return nil, err
			}
			l2, r2, err := promotePair(lhs, rhs)
			if err != nil {
				return nil, err
			}
			eq, err := expr.TryCall("=", l2, r2)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = eq
			} else {
				out = expr.NewCall("or", out, eq)
			}
		}
		if out == nil {
			out = expr.CBool(false)
		}
		if e.Not {
			return expr.TryCall("not", out)
		}
		return out, nil
	case *sql.ExistsExpr:
		return nil, fmt.Errorf("plan: EXISTS is only supported as a top-level WHERE conjunct")
	case *sql.SubqueryExpr:
		if b.EvalScalarSub == nil {
			return nil, fmt.Errorf("plan: scalar subqueries need an executor")
		}
		v, err := b.EvalScalarSub(e.Sub)
		if err != nil {
			return nil, err
		}
		return &expr.Const{Val: v}, nil
	}
	return nil, fmt.Errorf("plan: unsupported expression %T", n)
}

func isUntypedNull(e expr.Expr) bool {
	c, ok := e.(*expr.Const)
	return ok && c.Val.Null && c.Val.Kind == types.KindInvalid
}

// promotePair makes two operands type-compatible: numeric widening, typing
// of NULL literals, date arithmetic left alone.
func promotePair(a, b expr.Expr) (expr.Expr, expr.Expr, error) {
	switch {
	case isUntypedNull(a) && isUntypedNull(b):
		return nil, nil, fmt.Errorf("plan: cannot type NULL against NULL")
	case isUntypedNull(a):
		return &expr.Const{Val: types.NewNull(b.Type().Kind)}, b, nil
	case isUntypedNull(b):
		return a, &expr.Const{Val: types.NewNull(a.Type().Kind)}, nil
	}
	ak, bk := a.Type().Kind, b.Type().Kind
	if ak == bk {
		return a, b, nil
	}
	if k := types.CommonNumeric(ak, bk); k != types.KindInvalid {
		return expr.Promote(a, k), expr.Promote(b, k), nil
	}
	// DATE vs integer stays as-is for date arithmetic.
	if ak == types.KindDate && bk.Integral() || bk == types.KindDate && ak.Integral() {
		return a, b, nil
	}
	return nil, nil, fmt.Errorf("plan: incompatible types %v and %v", a.Type(), b.Type())
}

func (b *Binder) bindBinOp(sc *scope, e *sql.BinOp, hook leafHook) (expr.Expr, error) {
	l, err := b.bindExpr(sc, e.L, hook)
	if err != nil {
		return nil, err
	}
	r, err := b.bindExpr(sc, e.R, hook)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "and", "or":
		return expr.TryCall(e.Op, l, r)
	case "like":
		return expr.TryCall("like", l, r)
	case "||":
		if l.Type().Kind != types.KindString || r.Type().Kind != types.KindString {
			// String concatenation casts its operands.
			if l.Type().Kind != types.KindString {
				l = expr.Promote(l, types.KindString)
			}
			if r.Type().Kind != types.KindString {
				r = expr.Promote(r, types.KindString)
			}
		}
		return expr.TryCall("||", l, r)
	case "+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=":
		l2, r2, err := promotePair(l, r)
		if err != nil {
			return nil, err
		}
		return expr.TryCall(e.Op, l2, r2)
	}
	return nil, fmt.Errorf("plan: binary operator %q", e.Op)
}

// funcAlias maps SQL-surface function names onto kernel catalog names —
// part of the paper's "Many Functions" story: the surface area is wide,
// the kernel's primitive set narrow.
var funcAlias = map[string]string{
	"substring":   "substr",
	"char_length": "length",
	"len":         "length",
	"ceiling":     "ceil",
	"pow":         "power",
	"datediff":    "date_diff",
	"adddate":     "date_add",
	"dayofweek":   "dayofweek",
	"greatest":    "max2",
	"least":       "min2",
	"concat":      "||",
	"nvl":         "ifnull",
}

func (b *Binder) bindFunc(sc *scope, e *sql.FuncCall, hook leafHook) (expr.Expr, error) {
	if isAggName(e.Name) {
		return nil, fmt.Errorf("plan: aggregate %s in a non-aggregating context", e.Name)
	}
	name := e.Name
	if alias, ok := funcAlias[name]; ok {
		name = alias
	}
	args := make([]expr.Expr, len(e.Args))
	for i, a := range e.Args {
		bound, err := b.bindExpr(sc, a, hook)
		if err != nil {
			return nil, err
		}
		args[i] = bound
	}
	// Multi-arg coalesce/concat fold right.
	if (name == "coalesce" || name == "||") && len(args) > 2 {
		out := args[len(args)-1]
		for i := len(args) - 2; i >= 0; i-- {
			var err error
			o, err := expr.TryCall(name, args[i], out)
			if err != nil {
				return nil, err
			}
			out = o
		}
		return out, nil
	}
	// substr with 2 args: to end of string.
	if name == "substr" && len(args) == 2 {
		args = append(args, expr.CInt(1<<31))
	}
	// Math functions take DOUBLE: promote numeric args.
	switch name {
	case "sqrt", "ln", "exp", "floor", "ceil", "power":
		for i := range args {
			if args[i].Type().Kind.Integral() {
				args[i] = expr.Promote(args[i], types.KindFloat64)
			}
		}
	case "round":
		if len(args) == 1 {
			args = append(args, expr.CInt(0))
		}
		if args[0].Type().Kind.Integral() {
			args[0] = expr.Promote(args[0], types.KindFloat64)
		}
	case "min2", "max2", "ifnull", "coalesce":
		if len(args) == 2 {
			l2, r2, err := promotePair(args[0], args[1])
			if err != nil {
				return nil, err
			}
			args[0], args[1] = l2, r2
		}
	case "mod":
		if len(args) == 2 {
			l2, r2, err := promotePair(args[0], args[1])
			if err != nil {
				return nil, err
			}
			args[0], args[1] = l2, r2
		}
	}
	return expr.TryCall(name, args...)
}

func (b *Binder) bindCase(sc *scope, e *sql.CaseExpr, hook leafHook) (expr.Expr, error) {
	// Bind branches, unify types, then fold WHENs right-to-left into
	// nested if().
	var conds []expr.Expr
	var thens []expr.Expr
	for _, w := range e.Whens {
		c, err := b.bindExpr(sc, w.Cond, hook)
		if err != nil {
			return nil, err
		}
		if c.Type().Kind != types.KindBool {
			return nil, fmt.Errorf("plan: CASE condition must be boolean")
		}
		t, err := b.bindExpr(sc, w.Then, hook)
		if err != nil {
			return nil, err
		}
		conds = append(conds, c)
		thens = append(thens, t)
	}
	var els expr.Expr
	if e.Else != nil {
		bound, err := b.bindExpr(sc, e.Else, hook)
		if err != nil {
			return nil, err
		}
		els = bound
	}
	// Determine the unified branch kind.
	kind := types.KindInvalid
	nullable := els == nil
	consider := func(ex expr.Expr) error {
		if ex == nil || isUntypedNull(ex) {
			nullable = true
			return nil
		}
		k := ex.Type().Kind
		if ex.Type().Nullable {
			nullable = true
		}
		if kind == types.KindInvalid {
			kind = k
			return nil
		}
		if kind == k {
			return nil
		}
		if ck := types.CommonNumeric(kind, k); ck != types.KindInvalid {
			kind = ck
			return nil
		}
		return fmt.Errorf("plan: CASE branches mix %v and %v", kind, k)
	}
	for _, t := range thens {
		if err := consider(t); err != nil {
			return nil, err
		}
	}
	if err := consider(els); err != nil {
		return nil, err
	}
	if kind == types.KindInvalid {
		return nil, fmt.Errorf("plan: cannot type CASE of all NULLs")
	}
	coerce := func(ex expr.Expr) expr.Expr {
		if ex == nil || isUntypedNull(ex) {
			return &expr.Const{Val: types.NewNull(kind)}
		}
		if ex.Type().Kind != kind {
			return expr.Promote(ex, kind)
		}
		return ex
	}
	out := coerce(els)
	for i := len(conds) - 1; i >= 0; i-- {
		var err error
		out, err = expr.TryCall("if", conds[i], coerce(thens[i]), out)
		if err != nil {
			return nil, err
		}
	}
	_ = nullable
	return out, nil
}
