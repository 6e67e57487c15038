package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

func pow(a, b float64) float64 { return math.Pow(a, b) }

// vbuild.go binds a Call node to a concrete instruction: the switch from
// (function, argument kinds, argument shapes) to the right primitive. This
// is the Go analogue of X100's primitive-selection table.

// Slicers fetch the typed payload of a register's vector.
func sBool(v *vec.Vector) []bool   { return v.Bool }
func sI32(v *vec.Vector) []int32   { return v.I32 }
func sI64(v *vec.Vector) []int64   { return v.I64 }
func sF64(v *vec.Vector) []float64 { return v.F64 }
func sStr(v *vec.Vector) []string  { return v.Str }

// Constant converters.
func cBool(v types.Value) bool   { return v.Bool() }
func cI32(v types.Value) int32   { return int32(v.I64) }
func cI64(v types.Value) int64   { return v.I64 }
func cF64(v types.Value) float64 { return v.AsFloat() }
func cStr(v types.Value) string  { return v.Str }

func buildCall(fn string, args []argSlot, dst int, dstKind types.Kind, c *compiler) (instr, error) {
	switch fn {
	case "+", "-", "*", "/", "%", "mod":
		return buildArith(fn, args, dst, dstKind, c)
	case "cast_int32", "cast_int64", "cast_float64", "cast_string":
		return buildCast(fn, args, dst, c)
	case "neg", "abs", "sign":
		return buildUnaryNum(fn, args, dst, dstKind, c)
	case "upper", "lower", "trim", "ltrim", "rtrim", "length",
		"||", "concat", "substr", "replace", "position", "lpad", "rpad":
		return buildString(fn, args, dst, c)
	case "year", "month", "day", "quarter", "dayofweek",
		"date_add", "add_months", "date_diff":
		return buildDate(fn, args, dst, c)
	case "sqrt", "floor", "ceil", "ln", "exp", "round", "power":
		return buildMath(fn, args, dst, c)
	case "min2", "max2":
		return buildMinMax2(fn, args, dst, dstKind, c)
	case "isnull", "isnotnull", "coalesce", "ifnull", "nullif":
		return nil, fmt.Errorf("expr: %s must be lowered by SplitNulls before kernel compilation", fn)
	}
	return nil, fmt.Errorf("expr: no vectorized implementation of %q", fn)
}

// --- arithmetic ---

func buildArith(fn string, args []argSlot, dst int, dstKind types.Kind, c *compiler) (instr, error) {
	a, b := args[0], args[1]
	if a.isConst() && b.isConst() {
		// Fold compiles constant expressions, and a constant whose fold
		// failed reaches a query's program unfolded.
		a = c.materialize(a)
	}
	// DATE arithmetic routes to the date builders.
	if a.kind == types.KindDate {
		switch {
		case fn == "-" && b.kind == types.KindDate:
			return buildDate("date_diff", args, dst, c)
		case fn == "+":
			return buildDate("date_add", args, dst, c)
		case fn == "-":
			nb, err := negSlot(b, c)
			if err != nil {
				return nil, err
			}
			return buildDate("date_add", []argSlot{a, nb}, dst, c)
		}
	}
	switch dstKind {
	case types.KindInt32:
		return intArith(fn, a, b, dst, c, sI32, primitives.CheckedMulVVI32)
	case types.KindInt64:
		return intArith(fn, a, b, dst, c, sI64, primitives.CheckedMulVVI64)
	case types.KindFloat64:
		return floatArith(fn, a, b, dst, c)
	}
	return nil, fmt.Errorf("expr: arithmetic on %v", dstKind)
}

// negSlot negates the day count of a DATE subtraction in BIGINT, where every
// INTEGER has a negation (constant folding or a NegV step). The smallest
// BIGINT negates to itself, a count that takes every date out of range.
func negSlot(s argSlot, c *compiler) (argSlot, error) {
	if s.isConst() {
		return argSlot{reg: -1, val: types.NewInt64(-s.val.AsInt()), kind: types.KindInt64}, nil
	}
	s, err := toI64(c, s)
	if err != nil {
		return argSlot{}, err
	}
	r := c.allocReg(types.KindInt64)
	src := s.reg
	c.prog = append(c.prog, func(ctx *evalCtx) error {
		d, a := ctx.regs[r].I64, ctx.regs[src].I64
		if ctx.sel == nil {
			primitives.NegV(d[:ctx.n], a, nil)
		} else {
			primitives.NegV(d, a, ctx.sel)
		}
		return nil
	})
	return argSlot{reg: r, kind: types.KindInt64}, nil
}

func intArith[T primitives.Integer](
	fn string, a, b argSlot, dst int, c *compiler,
	sl func(*vec.Vector) []T,
	mulChecked func(dst, a, b []T, sel []int32) error,
) (instr, error) {
	// The binder guarantees both sides already match the destination kind
	// via casts, so slots here share T. Every operation is checked: overflow
	// and division by zero are errors, never wrapped or faulting values.
	av := c.materialize(a)
	bv := c.materialize(b)
	ra, rb := av.reg, bv.reg
	var op func(dst, a, b []T, sel []int32) error
	switch fn {
	case "+":
		op = primitives.CheckedAddVV[T]
	case "-":
		op = primitives.CheckedSubVV[T]
	case "*":
		op = mulChecked
	case "/":
		op = primitives.CheckedDivVV[T]
	case "%", "mod":
		op = primitives.CheckedModVV[T]
	default:
		return nil, fmt.Errorf("expr: unsupported integer arithmetic %q", fn)
	}
	return func(ctx *evalCtx) error {
		d, x, y := sl(ctx.regs[dst]), sl(ctx.regs[ra]), sl(ctx.regs[rb])
		sel := ctx.sel
		if sel == nil {
			d = d[:ctx.n]
		}
		return op(d, x, y, sel)
	}, nil
}

func floatArith(fn string, a, b argSlot, dst int, c *compiler) (instr, error) {
	sl, cv := sF64, cF64
	switch {
	case fn == "/" && b.isConst():
		ra, k := a.reg, cv(b.val)
		return func(ctx *evalCtx) error {
			d, x := sl(ctx.regs[dst]), sl(ctx.regs[ra])
			sel := ctx.sel
			if sel == nil {
				d = d[:ctx.n]
			}
			return primitives.CheckedDivVCF(d, x, k, sel)
		}, nil
	case fn == "/":
		av := c.materialize(a)
		bv := c.materialize(b)
		ra, rb := av.reg, bv.reg
		return func(ctx *evalCtx) error {
			d, x, y := sl(ctx.regs[dst]), sl(ctx.regs[ra]), sl(ctx.regs[rb])
			sel := ctx.sel
			if sel == nil {
				d = d[:ctx.n]
			}
			return primitives.CheckedDivVVF(d, x, y, sel)
		}, nil
	case (fn == "+" || fn == "*") && a.isConst():
		a, b = b, a
	}
	switch fn {
	case "+":
		if b.isConst() {
			ra, k := a.reg, cv(b.val)
			return func(ctx *evalCtx) error {
				d, x := sl(ctx.regs[dst]), sl(ctx.regs[ra])
				if ctx.sel == nil {
					primitives.AddVC(d[:ctx.n], x, k, nil)
				} else {
					primitives.AddVC(d, x, k, ctx.sel)
				}
				return nil
			}, nil
		}
		ra, rb := a.reg, b.reg
		return func(ctx *evalCtx) error {
			d, x, y := sl(ctx.regs[dst]), sl(ctx.regs[ra]), sl(ctx.regs[rb])
			if ctx.sel == nil {
				primitives.AddVV(d[:ctx.n], x, y, nil)
			} else {
				primitives.AddVV(d, x, y, ctx.sel)
			}
			return nil
		}, nil
	case "-":
		switch {
		case b.isConst():
			ra, k := a.reg, cv(b.val)
			return func(ctx *evalCtx) error {
				d, x := sl(ctx.regs[dst]), sl(ctx.regs[ra])
				if ctx.sel == nil {
					primitives.SubVC(d[:ctx.n], x, k, nil)
				} else {
					primitives.SubVC(d, x, k, ctx.sel)
				}
				return nil
			}, nil
		case a.isConst():
			rb, k := b.reg, cv(a.val)
			return func(ctx *evalCtx) error {
				d, y := sl(ctx.regs[dst]), sl(ctx.regs[rb])
				if ctx.sel == nil {
					primitives.SubCV(d[:ctx.n], k, y, nil)
				} else {
					primitives.SubCV(d, k, y, ctx.sel)
				}
				return nil
			}, nil
		default:
			ra, rb := a.reg, b.reg
			return func(ctx *evalCtx) error {
				d, x, y := sl(ctx.regs[dst]), sl(ctx.regs[ra]), sl(ctx.regs[rb])
				if ctx.sel == nil {
					primitives.SubVV(d[:ctx.n], x, y, nil)
				} else {
					primitives.SubVV(d, x, y, ctx.sel)
				}
				return nil
			}, nil
		}
	case "*":
		if b.isConst() {
			ra, k := a.reg, cv(b.val)
			return func(ctx *evalCtx) error {
				d, x := sl(ctx.regs[dst]), sl(ctx.regs[ra])
				if ctx.sel == nil {
					primitives.MulVC(d[:ctx.n], x, k, nil)
				} else {
					primitives.MulVC(d, x, k, ctx.sel)
				}
				return nil
			}, nil
		}
		ra, rb := a.reg, b.reg
		return func(ctx *evalCtx) error {
			d, x, y := sl(ctx.regs[dst]), sl(ctx.regs[ra]), sl(ctx.regs[rb])
			if ctx.sel == nil {
				primitives.MulVV(d[:ctx.n], x, y, nil)
			} else {
				primitives.MulVV(d, x, y, ctx.sel)
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("expr: unsupported float arithmetic %q", fn)
}

// --- if ---

// compileIf compiles if(cond, a, b), the kernel form of CASE, COALESCE and
// IFNULL. The condition runs once, as a selection program over the incoming
// selection: the rows it selects take a, their SelComplement takes b. Each
// branch is a sub-program run only under its own rows, so a branch that
// would fail (a division by zero, an overflow) on the rows the condition
// sends the other way never sees them. A merge then joins the two results.
func (c *compiler) compileIf(n *Call) (argSlot, error) {
	cond, err := compilePred(n.Args[0], c.inputKinds)
	if err != nil {
		return argSlot{}, err
	}
	progA, ra, err := c.branch(n.Args[1])
	if err != nil {
		return argSlot{}, err
	}
	progB, rb, err := c.branch(n.Args[2])
	if err != nil {
		return argSlot{}, err
	}
	kind := n.T.Kind
	dst := c.allocReg(kind)
	var merge func(regs []*vec.Vector, selA, selB []int32)
	switch kind {
	case types.KindBool:
		merge = mergeOf(dst, ra, rb, sBool)
	case types.KindInt32, types.KindDate:
		merge = mergeOf(dst, ra, rb, sI32)
	case types.KindInt64:
		merge = mergeOf(dst, ra, rb, sI64)
	case types.KindFloat64:
		merge = mergeOf(dst, ra, rb, sF64)
	case types.KindString:
		merge = mergeOf(dst, ra, rb, sStr)
	default:
		return argSlot{}, fmt.Errorf("expr: if on %v", kind)
	}
	var selB []int32
	c.prog = append(c.prog, func(ctx *evalCtx) error {
		outer := ctx.sel
		selA, err := cond.apply(ctx, outer)
		if err != nil {
			return err
		}
		selB = primitives.SelComplement(selB, selA, outer, ctx.n)
		err = runUnder(ctx, progA, selA)
		if err == nil {
			err = runUnder(ctx, progB, selB)
		}
		ctx.sel = outer
		if err != nil {
			return err
		}
		merge(ctx.regs, selA, selB)
		return nil
	})
	return argSlot{reg: dst, kind: kind}, nil
}

// branch compiles e as a sub-program of its own, returning it and the
// register that holds its result.
func (c *compiler) branch(e Expr) ([]instr, int, error) {
	outer := c.prog
	c.prog = nil
	s, err := c.compileNode(e)
	if err == nil {
		s = c.materialize(s)
	}
	prog := c.prog
	c.prog = outer
	return prog, s.reg, err
}

// runUnder runs a sub-program under the selection sel (never nil).
func runUnder(ctx *evalCtx, prog []instr, sel []int32) error {
	ctx.sel = sel
	for _, ins := range prog {
		if err := ins(ctx); err != nil {
			return err
		}
	}
	return nil
}

func mergeOf[T any](dst, ra, rb int, sl func(*vec.Vector) []T) func([]*vec.Vector, []int32, []int32) {
	return func(regs []*vec.Vector, selA, selB []int32) {
		primitives.MergeSel(sl(regs[dst]), sl(regs[ra]), sl(regs[rb]), selA, selB)
	}
}

// --- casts ---

func buildCast(fn string, args []argSlot, dst int, c *compiler) (instr, error) {
	a := c.materialize(args[0])
	ra := a.reg
	switch fn {
	case "cast_int32":
		switch a.kind {
		case types.KindInt32, types.KindDate:
			return aliasCopyIns(ra, dst, sI32), nil
		case types.KindInt64:
			return checkedMapIns(primitives.CheckedNarrowV, ra, dst, sI64, sI32), nil
		case types.KindFloat64:
			return checkedMapIns(primitives.CheckedTruncV[int32], ra, dst, sF64, sI32), nil
		}
	case "cast_int64":
		switch a.kind {
		case types.KindInt32, types.KindDate:
			return castIns(ra, dst, sI32, sI64), nil
		case types.KindInt64:
			return aliasCopyIns(ra, dst, sI64), nil
		case types.KindFloat64:
			return checkedMapIns(primitives.CheckedTruncV[int64], ra, dst, sF64, sI64), nil
		case types.KindBool:
			return func(ctx *evalCtx) error {
				d, x := ctx.regs[dst].I64, ctx.regs[ra].Bool
				set := func(i int) {
					if x[i] {
						d[i] = 1
					} else {
						d[i] = 0
					}
				}
				if ctx.sel == nil {
					for i := 0; i < ctx.n; i++ {
						set(i)
					}
				} else {
					for _, i := range ctx.sel {
						set(int(i))
					}
				}
				return nil
			}, nil
		}
	case "cast_float64":
		switch a.kind {
		case types.KindInt32:
			return castIns(ra, dst, sI32, sF64), nil
		case types.KindInt64:
			return castIns(ra, dst, sI64, sF64), nil
		case types.KindFloat64:
			return aliasCopyIns(ra, dst, sF64), nil
		}
	case "cast_string":
		srcKind := a.kind
		return func(ctx *evalCtx) error {
			d := ctx.regs[dst].Str
			src := ctx.regs[ra]
			conv := func(i int) string {
				switch srcKind {
				case types.KindInt32:
					return strconv.FormatInt(int64(src.I32[i]), 10)
				case types.KindInt64:
					return strconv.FormatInt(src.I64[i], 10)
				case types.KindFloat64:
					return strconv.FormatFloat(src.F64[i], 'g', -1, 64)
				case types.KindBool:
					if src.Bool[i] {
						return "true"
					}
					return "false"
				case types.KindDate:
					return types.FormatDate(src.I32[i])
				default:
					return src.Str[i]
				}
			}
			if ctx.sel == nil {
				for i := 0; i < ctx.n; i++ {
					d[i] = conv(i)
				}
			} else {
				for _, i := range ctx.sel {
					d[i] = conv(int(i))
				}
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("expr: unsupported cast %s from %v", fn, a.kind)
}

func castIns[S, D primitives.Num](ra, dst int, slS func(*vec.Vector) []S, slD func(*vec.Vector) []D) instr {
	return func(ctx *evalCtx) error {
		d, x := slD(ctx.regs[dst]), slS(ctx.regs[ra])
		if ctx.sel == nil {
			primitives.CastNum(d[:ctx.n], x, nil)
		} else {
			primitives.CastNum(d, x, ctx.sel)
		}
		return nil
	}
}

// checkedMapIns runs a one-operand kernel that can fail (a value that does
// not fit its destination type).
func checkedMapIns[S, D primitives.Num](f func(dst []D, a []S, sel []int32) error,
	ra, dst int, slS func(*vec.Vector) []S, slD func(*vec.Vector) []D) instr {
	return func(ctx *evalCtx) error {
		d, x := slD(ctx.regs[dst]), slS(ctx.regs[ra])
		if ctx.sel == nil {
			return f(d[:ctx.n], x, nil)
		}
		return f(d, x, ctx.sel)
	}
}

func aliasCopyIns[T any](ra, dst int, sl func(*vec.Vector) []T) instr {
	return func(ctx *evalCtx) error {
		d, x := sl(ctx.regs[dst]), sl(ctx.regs[ra])
		if ctx.sel == nil {
			copy(d[:ctx.n], x[:ctx.n])
		} else {
			for _, i := range ctx.sel {
				d[i] = x[i]
			}
		}
		return nil
	}
}

// --- unary numeric ---

func buildUnaryNum(fn string, args []argSlot, dst int, dstKind types.Kind, c *compiler) (instr, error) {
	ra := c.materialize(args[0]).reg
	switch dstKind {
	case types.KindInt32:
		return intUnaryIns(fn, ra, dst, sI32)
	case types.KindInt64:
		return intUnaryIns(fn, ra, dst, sI64)
	case types.KindFloat64:
		return unaryNumIns(fn, ra, dst, sF64)
	}
	return nil, fmt.Errorf("expr: %s on %v", fn, dstKind)
}

// intUnaryIns checks neg and abs: the smallest integer has no positive
// counterpart.
func intUnaryIns[T primitives.Integer](fn string, ra, dst int, sl func(*vec.Vector) []T) (instr, error) {
	switch fn {
	case "neg":
		return checkedMapIns(primitives.CheckedNegV[T], ra, dst, sl, sl), nil
	case "abs":
		return checkedMapIns(primitives.CheckedAbsV[T], ra, dst, sl, sl), nil
	}
	return unaryNumIns(fn, ra, dst, sl)
}

func unaryNumIns[T primitives.Num](fn string, ra, dst int, sl func(*vec.Vector) []T) (instr, error) {
	var f func(dst, a []T, sel []int32)
	switch fn {
	case "neg":
		f = primitives.NegV[T]
	case "abs":
		f = primitives.AbsV[T]
	case "sign":
		f = primitives.SignV[T]
	default:
		return nil, fmt.Errorf("expr: unary %q", fn)
	}
	return func(ctx *evalCtx) error {
		d, x := sl(ctx.regs[dst]), sl(ctx.regs[ra])
		if ctx.sel == nil {
			f(d[:ctx.n], x, nil)
		} else {
			f(d, x, ctx.sel)
		}
		return nil
	}, nil
}

// --- min2/max2 ---

func buildMinMax2(fn string, args []argSlot, dst int, dstKind types.Kind, c *compiler) (instr, error) {
	a := c.materialize(args[0])
	b := c.materialize(args[1])
	isMin := fn == "min2"
	switch dstKind {
	case types.KindInt32, types.KindDate:
		return minMaxIns(isMin, a.reg, b.reg, dst, sI32), nil
	case types.KindInt64:
		return minMaxIns(isMin, a.reg, b.reg, dst, sI64), nil
	case types.KindFloat64:
		return minMaxIns(isMin, a.reg, b.reg, dst, sF64), nil
	case types.KindString:
		return minMaxIns(isMin, a.reg, b.reg, dst, sStr), nil
	}
	return nil, fmt.Errorf("expr: %s on %v", fn, dstKind)
}

func minMaxIns[T primitives.Ordered](isMin bool, ra, rb, dst int, sl func(*vec.Vector) []T) instr {
	return func(ctx *evalCtx) error {
		d, x, y := sl(ctx.regs[dst]), sl(ctx.regs[ra]), sl(ctx.regs[rb])
		sel := ctx.sel
		if sel == nil {
			d = d[:ctx.n]
		}
		if isMin {
			primitives.MinVV(d, x, y, sel)
		} else {
			primitives.MaxVV(d, x, y, sel)
		}
		return nil
	}
}

// --- strings ---

func buildString(fn string, args []argSlot, dst int, c *compiler) (instr, error) {
	switch fn {
	case "upper", "lower", "trim", "ltrim", "rtrim":
		a := c.materialize(args[0])
		ra := a.reg
		var f func(dst, a []string, sel []int32)
		switch fn {
		case "upper":
			f = primitives.UpperV
		case "lower":
			f = primitives.LowerV
		case "trim":
			f = primitives.TrimV
		case "ltrim":
			f = primitives.LTrimV
		case "rtrim":
			f = primitives.RTrimV
		}
		return func(ctx *evalCtx) error {
			d, x := ctx.regs[dst].Str, ctx.regs[ra].Str
			if ctx.sel == nil {
				f(d[:ctx.n], x, nil)
			} else {
				f(d, x, ctx.sel)
			}
			return nil
		}, nil
	case "length":
		a := c.materialize(args[0])
		ra := a.reg
		return func(ctx *evalCtx) error {
			d, x := ctx.regs[dst].I64, ctx.regs[ra].Str
			if ctx.sel == nil {
				primitives.LengthV(d[:ctx.n], x, nil)
			} else {
				primitives.LengthV(d, x, ctx.sel)
			}
			return nil
		}, nil
	case "||", "concat":
		a, b := args[0], args[1]
		switch {
		case b.isConst() && !a.isConst():
			ra, k := a.reg, b.val.Str
			return func(ctx *evalCtx) error {
				d, x := ctx.regs[dst].Str, ctx.regs[ra].Str
				if ctx.sel == nil {
					primitives.ConcatVC(d[:ctx.n], x, k, nil)
				} else {
					primitives.ConcatVC(d, x, k, ctx.sel)
				}
				return nil
			}, nil
		case a.isConst() && !b.isConst():
			rb, k := b.reg, a.val.Str
			return func(ctx *evalCtx) error {
				d, y := ctx.regs[dst].Str, ctx.regs[rb].Str
				if ctx.sel == nil {
					primitives.ConcatCV(d[:ctx.n], k, y, nil)
				} else {
					primitives.ConcatCV(d, k, y, ctx.sel)
				}
				return nil
			}, nil
		default:
			av := c.materialize(a)
			bv := c.materialize(b)
			ra, rb := av.reg, bv.reg
			return func(ctx *evalCtx) error {
				d, x, y := ctx.regs[dst].Str, ctx.regs[ra].Str, ctx.regs[rb].Str
				if ctx.sel == nil {
					primitives.ConcatVV(d[:ctx.n], x, y, nil)
				} else {
					primitives.ConcatVV(d, x, y, ctx.sel)
				}
				return nil
			}, nil
		}
	case "substr":
		a := c.materialize(args[0])
		ra := a.reg
		if args[1].isConst() && args[2].isConst() {
			start, length := args[1].val.AsInt(), args[2].val.AsInt()
			return func(ctx *evalCtx) error {
				d, x := ctx.regs[dst].Str, ctx.regs[ra].Str
				if ctx.sel == nil {
					primitives.SubstrVCC(d[:ctx.n], x, start, length, nil)
				} else {
					primitives.SubstrVCC(d, x, start, length, ctx.sel)
				}
				return nil
			}, nil
		}
		st, err := toI64(c, args[1])
		if err != nil {
			return nil, err
		}
		ln, err := toI64(c, args[2])
		if err != nil {
			return nil, err
		}
		rs, rl := st.reg, ln.reg
		return func(ctx *evalCtx) error {
			d, x := ctx.regs[dst].Str, ctx.regs[ra].Str
			s, l := ctx.regs[rs].I64, ctx.regs[rl].I64
			if ctx.sel == nil {
				primitives.SubstrVVV(d[:ctx.n], x, s, l, nil)
			} else {
				primitives.SubstrVVV(d, x, s, l, ctx.sel)
			}
			return nil
		}, nil
	case "replace":
		if !args[1].isConst() || !args[2].isConst() {
			return nil, fmt.Errorf("expr: replace patterns must be constant")
		}
		a := c.materialize(args[0])
		ra, old, new := a.reg, args[1].val.Str, args[2].val.Str
		return func(ctx *evalCtx) error {
			d, x := ctx.regs[dst].Str, ctx.regs[ra].Str
			if ctx.sel == nil {
				primitives.ReplaceVCC(d[:ctx.n], x, old, new, nil)
			} else {
				primitives.ReplaceVCC(d, x, old, new, ctx.sel)
			}
			return nil
		}, nil
	case "position":
		if !args[1].isConst() {
			return nil, fmt.Errorf("expr: position needle must be constant")
		}
		a := c.materialize(args[0])
		ra, needle := a.reg, args[1].val.Str
		return func(ctx *evalCtx) error {
			d, x := ctx.regs[dst].I64, ctx.regs[ra].Str
			if ctx.sel == nil {
				primitives.PositionVC(d[:ctx.n], x, needle, nil)
			} else {
				primitives.PositionVC(d, x, needle, ctx.sel)
			}
			return nil
		}, nil
	case "lpad", "rpad":
		if !args[1].isConst() || !args[2].isConst() {
			return nil, fmt.Errorf("expr: pad arguments must be constant")
		}
		a := c.materialize(args[0])
		ra, width, pad := a.reg, args[1].val.AsInt(), args[2].val.Str
		left := fn == "lpad"
		return func(ctx *evalCtx) error {
			d, x := ctx.regs[dst].Str, ctx.regs[ra].Str
			sel := ctx.sel
			if sel == nil {
				d = d[:ctx.n]
			}
			if left {
				primitives.LPadVC(d, x, width, pad, sel)
			} else {
				primitives.RPadVC(d, x, width, pad, sel)
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("expr: unsupported string function %q", fn)
}

func escapeLike(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `%`, `\%`, `_`, `\_`)
	return r.Replace(s)
}

// toI64 coerces an integral slot into an int64 register.
func toI64(c *compiler, s argSlot) (argSlot, error) {
	if s.isConst() {
		v := types.NewInt64(s.val.AsInt())
		return c.materialize(argSlot{reg: -1, val: v, kind: types.KindInt64}), nil
	}
	if s.kind == types.KindInt64 {
		return s, nil
	}
	if s.kind != types.KindInt32 {
		return argSlot{}, fmt.Errorf("expr: expected integer, got %v", s.kind)
	}
	dst := c.allocReg(types.KindInt64)
	c.prog = append(c.prog, castIns(s.reg, dst, sI32, sI64))
	return argSlot{reg: dst, kind: types.KindInt64}, nil
}

// --- dates ---

func buildDate(fn string, args []argSlot, dst int, c *compiler) (instr, error) {
	a := c.materialize(args[0])
	ra := a.reg
	switch fn {
	case "year", "month", "day", "quarter", "dayofweek":
		var f func(dst, a []int32, sel []int32)
		switch fn {
		case "year":
			f = primitives.DateYearV
		case "month":
			f = primitives.DateMonthV
		case "day":
			f = primitives.DateDayV
		case "quarter":
			f = primitives.DateQuarterV
		case "dayofweek":
			f = primitives.DateDowV
		}
		return func(ctx *evalCtx) error {
			d, x := ctx.regs[dst].I32, ctx.regs[ra].I32
			if ctx.sel == nil {
				f(d[:ctx.n], x, nil)
			} else {
				f(d, x, ctx.sel)
			}
			return nil
		}, nil
	case "date_add", "add_months":
		months := fn == "add_months"
		if args[1].isConst() {
			k := args[1].val.AsInt()
			return func(ctx *evalCtx) error {
				d, x := ctx.regs[dst].I32, ctx.regs[ra].I32
				sel := ctx.sel
				if sel == nil {
					d = d[:ctx.n]
				}
				if months {
					return primitives.DateAddMonthsVC(d, x, k, sel)
				}
				return primitives.DateAddDaysVC(d, x, k, sel)
			}, nil
		}
		nSlot, err := toI64(c, args[1])
		if err != nil {
			return nil, err
		}
		rn := nSlot.reg
		f := primitives.DateAddDaysVV
		if months {
			f = primitives.DateAddMonthsVV
		}
		return func(ctx *evalCtx) error {
			d, x, nn := ctx.regs[dst].I32, ctx.regs[ra].I32, ctx.regs[rn].I64
			if ctx.sel == nil {
				return f(d[:ctx.n], x, nn, nil)
			}
			return f(d, x, nn, ctx.sel)
		}, nil
	case "date_diff":
		b := c.materialize(args[1])
		rb := b.reg
		return func(ctx *evalCtx) error {
			d, x, y := ctx.regs[dst].I64, ctx.regs[ra].I32, ctx.regs[rb].I32
			if ctx.sel == nil {
				primitives.DateDiffVV(d[:ctx.n], x, y, nil)
			} else {
				primitives.DateDiffVV(d, x, y, ctx.sel)
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("expr: unsupported date function %q", fn)
}

// --- math ---

func buildMath(fn string, args []argSlot, dst int, c *compiler) (instr, error) {
	a := c.materialize(args[0])
	ra := a.reg
	switch fn {
	case "sqrt", "floor", "ceil", "ln", "exp":
		var f func(dst, a []float64, sel []int32)
		switch fn {
		case "sqrt":
			f = primitives.SqrtV
		case "floor":
			f = primitives.FloorV
		case "ceil":
			f = primitives.CeilV
		case "ln":
			f = primitives.LnV
		case "exp":
			f = primitives.ExpV
		}
		return func(ctx *evalCtx) error {
			d, x := ctx.regs[dst].F64, ctx.regs[ra].F64
			if ctx.sel == nil {
				f(d[:ctx.n], x, nil)
			} else {
				f(d, x, ctx.sel)
			}
			return nil
		}, nil
	case "round":
		if !args[1].isConst() {
			return nil, fmt.Errorf("expr: round digits must be constant")
		}
		digits := args[1].val.AsInt()
		return func(ctx *evalCtx) error {
			d, x := ctx.regs[dst].F64, ctx.regs[ra].F64
			if ctx.sel == nil {
				primitives.RoundV(d[:ctx.n], x, digits, nil)
			} else {
				primitives.RoundV(d, x, digits, ctx.sel)
			}
			return nil
		}, nil
	case "power":
		if args[1].isConst() {
			k := args[1].val.AsFloat()
			return func(ctx *evalCtx) error {
				d, x := ctx.regs[dst].F64, ctx.regs[ra].F64
				if ctx.sel == nil {
					primitives.PowVC(d[:ctx.n], x, k, nil)
				} else {
					primitives.PowVC(d, x, k, ctx.sel)
				}
				return nil
			}, nil
		}
		b := c.materialize(args[1])
		rb := b.reg
		return func(ctx *evalCtx) error {
			d, x, y := ctx.regs[dst].F64, ctx.regs[ra].F64, ctx.regs[rb].F64
			apply := func(i int) { d[i] = pow(x[i], y[i]) }
			if ctx.sel == nil {
				for i := 0; i < ctx.n; i++ {
					apply(i)
				}
			} else {
				for _, i := range ctx.sel {
					apply(int(i))
				}
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("expr: unsupported math function %q", fn)
}
