package expr

import (
	"fmt"

	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// The filter compiler turns a boolean predicate into a *selection program*:
// instead of materializing a bool vector and then scanning it, comparisons
// compile directly to Sel* primitives that shrink a selection vector.
// Conjunctions chain selections (each term runs only over survivors —
// X100's cheap filter composition); disjunctions union them.

// Filter is a compiled predicate. It owns its per-batch state, so applying
// it allocates nothing once its selection buffers have grown.
type Filter struct {
	root selNode
	ctx  selCtx
	ev   evalCtx
}

// selCtx carries per-batch state for filter execution.
type selCtx struct {
	ev *evalCtx
}

type selNode interface {
	// apply narrows cur (physical positions, sorted; nil = all n rows) and
	// returns the surviving selection. The returned slice is owned by the
	// node and valid until its next apply.
	apply(ctx *selCtx, cur []int32) ([]int32, error)
}

// CompileFilter builds a Filter for pred over inputs of the given kinds.
func CompileFilter(pred Expr, inputKinds []types.Kind) (*Filter, error) {
	if pred.Type().Kind != types.KindBool {
		return nil, fmt.Errorf("expr: filter predicate has type %v, want BOOLEAN", pred.Type())
	}
	fc := &filterCompiler{inputKinds: inputKinds}
	root, err := fc.compile(pred)
	if err != nil {
		return nil, err
	}
	f := &Filter{root: root}
	f.ctx.ev = &f.ev
	return f, nil
}

// Apply evaluates the filter over a batch and returns the selection of
// qualifying physical positions (subset of b.Sel, or of all rows when b.Sel
// is nil). The result is owned by the filter and valid until the next Apply.
func (f *Filter) Apply(b *vec.Batch) ([]int32, error) {
	f.ev = evalCtx{in: b, n: b.Full()}
	return f.root.apply(&f.ctx, b.Sel)
}

type filterCompiler struct {
	inputKinds []types.Kind
}

func (fc *filterCompiler) compile(pred Expr) (selNode, error) {
	call, ok := pred.(*Call)
	if !ok {
		// Bare column or constant of type bool: generic fallback.
		return fc.boolFallback(pred)
	}
	switch call.Fn {
	case "and":
		l, err := fc.compile(call.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := fc.compile(call.Args[1])
		if err != nil {
			return nil, err
		}
		return &selAnd{l: l, r: r}, nil
	case "or":
		l, err := fc.compile(call.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := fc.compile(call.Args[1])
		if err != nil {
			return nil, err
		}
		return &selOr{l: l, r: r}, nil
	case "not":
		child, err := fc.compile(call.Args[0])
		if err != nil {
			return nil, err
		}
		return &selNot{child: child}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return fc.compileCmp(call)
	case "between":
		return fc.compileBetween(call)
	case "like", "starts_with", "ends_with", "contains":
		return fc.compileLike(call)
	default:
		return fc.boolFallback(pred)
	}
}

// selAnd narrows left-to-right: the right term only sees left survivors.
type selAnd struct{ l, r selNode }

func (s *selAnd) apply(ctx *selCtx, cur []int32) ([]int32, error) {
	mid, err := s.l.apply(ctx, cur)
	if err != nil {
		return nil, err
	}
	if len(mid) == 0 {
		return mid, nil
	}
	return s.r.apply(ctx, mid)
}

// selOr unions both terms evaluated under the incoming selection.
type selOr struct {
	l, r selNode
	buf  []int32
	lbuf []int32
}

func (s *selOr) apply(ctx *selCtx, cur []int32) ([]int32, error) {
	lres, err := s.l.apply(ctx, cur)
	if err != nil {
		return nil, err
	}
	// The left result's buffer may be reused by the right branch if both
	// sides share node types; snapshot it.
	s.lbuf = append(s.lbuf[:0], lres...)
	rres, err := s.r.apply(ctx, cur)
	if err != nil {
		return nil, err
	}
	if s.lbuf == nil {
		s.lbuf = []int32{}
	}
	if rres == nil {
		rres = []int32{}
	}
	s.buf = vec.OrSel(s.buf, s.lbuf, rres, ctx.ev.n)
	return s.buf, nil
}

// selNot complements the child within the incoming selection.
type selNot struct {
	child selNode
	inv   []int32
	buf   []int32
}

func (s *selNot) apply(ctx *selCtx, cur []int32) ([]int32, error) {
	res, err := s.child.apply(ctx, cur)
	if err != nil {
		return nil, err
	}
	s.inv = vec.Invert(s.inv, res, ctx.ev.n)
	s.buf = vec.AndSel(s.buf, s.inv, cur, ctx.ev.n)
	return s.buf, nil
}

// selLeaf runs a prelude program (map instructions computing operand
// registers under the current selection) and then one selection primitive.
type selLeaf struct {
	ev   *Evaluator // operand program; may be empty
	prim func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32
	dst  []int32
}

func (s *selLeaf) apply(ctx *selCtx, cur []int32) ([]int32, error) {
	b := ctx.ev.in
	if s.ev != nil {
		if _, err := s.ev.EvalSel(b, cur); err != nil {
			return nil, err
		}
		s.dst = s.prim(s.dst, s.ev.regState, cur, b.Full())
		return s.dst, nil
	}
	s.dst = s.prim(s.dst, nil, cur, b.Full())
	return s.dst, nil
}

// compileCmp builds a comparison leaf. Operand subexpressions are compiled
// into a shared evaluator whose registers the selection primitive reads.
func (fc *filterCompiler) compileCmp(call *Call) (selNode, error) {
	a, b := call.Args[0], call.Args[1]
	fn := call.Fn
	if isConstExpr(a) && !isConstExpr(b) {
		a, b = b, a
		fn = mirrorCmp(fn)
	}
	c := &compiler{inputKinds: fc.inputKinds}
	sa, err := c.compileNode(a)
	if err != nil {
		return nil, err
	}
	var sb argSlot
	constRHS := isConstExpr(b)
	if constRHS {
		sb = argSlot{reg: -1, val: b.(*Const).Val, kind: b.Type().Kind}
	} else {
		sb, err = c.compileNode(b)
		if err != nil {
			return nil, err
		}
		sb = c.materialize(sb)
	}
	sa = c.materialize(sa)
	ev := finishProgram(c, sa.reg)

	var prim func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32
	switch a.Type().Kind {
	case types.KindInt32, types.KindDate:
		prim, err = selCmpPrim(fn, sa.reg, sb, sI32, cI32)
	case types.KindInt64:
		prim, err = selCmpPrim(fn, sa.reg, sb, sI64, cI64)
	case types.KindFloat64:
		prim, err = selCmpPrim(fn, sa.reg, sb, sF64, cF64)
	case types.KindString:
		prim, err = selCmpPrim(fn, sa.reg, sb, sStr, cStr)
	case types.KindBool:
		return fc.boolFallback(call)
	default:
		return nil, fmt.Errorf("expr: filter comparison on %v", a.Type().Kind)
	}
	if err != nil {
		return nil, err
	}
	return &selLeaf{ev: ev, prim: prim}, nil
}

func selCmpPrim[T primitives.Ordered](
	fn string, ra int, b argSlot,
	sl func(*vec.Vector) []T, cv func(types.Value) T,
) (func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32, error) {
	if b.isConst() {
		k := cv(b.val)
		switch fn {
		case "=":
			return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
				return primitives.SelEqVC(dst, sl(regs[ra]), k, cur, n)
			}, nil
		case "<>":
			return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
				return primitives.SelNeVC(dst, sl(regs[ra]), k, cur, n)
			}, nil
		case "<":
			return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
				return primitives.SelLtVC(dst, sl(regs[ra]), k, cur, n)
			}, nil
		case "<=":
			return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
				return primitives.SelLeVC(dst, sl(regs[ra]), k, cur, n)
			}, nil
		case ">":
			return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
				return primitives.SelGtVC(dst, sl(regs[ra]), k, cur, n)
			}, nil
		case ">=":
			return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
				return primitives.SelGeVC(dst, sl(regs[ra]), k, cur, n)
			}, nil
		}
		return nil, fmt.Errorf("expr: comparison %q", fn)
	}
	rb := b.reg
	switch fn {
	case "=":
		return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return primitives.SelEqVV(dst, sl(regs[ra]), sl(regs[rb]), cur, n)
		}, nil
	case "<>":
		return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return primitives.SelNeVV(dst, sl(regs[ra]), sl(regs[rb]), cur, n)
		}, nil
	case "<":
		return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return primitives.SelLtVV(dst, sl(regs[ra]), sl(regs[rb]), cur, n)
		}, nil
	case "<=":
		return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return primitives.SelLeVV(dst, sl(regs[ra]), sl(regs[rb]), cur, n)
		}, nil
	case ">":
		return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return primitives.SelGtVV(dst, sl(regs[ra]), sl(regs[rb]), cur, n)
		}, nil
	case ">=":
		return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return primitives.SelGeVV(dst, sl(regs[ra]), sl(regs[rb]), cur, n)
		}, nil
	}
	return nil, fmt.Errorf("expr: comparison %q", fn)
}

// compileBetween builds the fused range-selection leaf when bounds are
// constant; otherwise it decomposes into AND.
func (fc *filterCompiler) compileBetween(call *Call) (selNode, error) {
	x, lo, hi := call.Args[0], call.Args[1], call.Args[2]
	if !isConstExpr(lo) || !isConstExpr(hi) {
		ge := &Call{Fn: ">=", Args: []Expr{x, lo}, T: types.Bool}
		le := &Call{Fn: "<=", Args: []Expr{x, hi}, T: types.Bool}
		return fc.compile(&Call{Fn: "and", Args: []Expr{ge, le}, T: types.Bool})
	}
	c := &compiler{inputKinds: fc.inputKinds}
	sx, err := c.compileNode(x)
	if err != nil {
		return nil, err
	}
	sx = c.materialize(sx)
	ev := finishProgram(c, sx.reg)
	loV, hiV := lo.(*Const).Val, hi.(*Const).Val
	var prim func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32
	ra := sx.reg
	switch x.Type().Kind {
	case types.KindInt32, types.KindDate:
		a, b := cI32(loV), cI32(hiV)
		prim = func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return primitives.SelBetweenVCC(dst, regs[ra].I32, a, b, cur, n)
		}
	case types.KindInt64:
		a, b := cI64(loV), cI64(hiV)
		prim = func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return primitives.SelBetweenVCC(dst, regs[ra].I64, a, b, cur, n)
		}
	case types.KindFloat64:
		a, b := cF64(loV), cF64(hiV)
		prim = func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return primitives.SelBetweenVCC(dst, regs[ra].F64, a, b, cur, n)
		}
	case types.KindString:
		a, b := loV.Str, hiV.Str
		prim = func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return primitives.SelBetweenVCC(dst, regs[ra].Str, a, b, cur, n)
		}
	default:
		return nil, fmt.Errorf("expr: between on %v", x.Type().Kind)
	}
	return &selLeaf{ev: ev, prim: prim}, nil
}

// compileLike builds a pattern-selection leaf (constant pattern only).
func (fc *filterCompiler) compileLike(call *Call) (selNode, error) {
	pat, ok := call.Args[1].(*Const)
	if !ok {
		return nil, fmt.Errorf("expr: %s pattern must be constant in filters", call.Fn)
	}
	c := &compiler{inputKinds: fc.inputKinds}
	sx, err := c.compileNode(call.Args[0])
	if err != nil {
		return nil, err
	}
	sx = c.materialize(sx)
	ev := finishProgram(c, sx.reg)
	var m *primitives.LikeMatcher
	switch call.Fn {
	case "like":
		m = primitives.CompileLike(pat.Val.Str)
	case "starts_with":
		m = primitives.CompileLike(escapeLike(pat.Val.Str) + "%")
	case "ends_with":
		m = primitives.CompileLike("%" + escapeLike(pat.Val.Str))
	case "contains":
		m = primitives.CompileLike("%" + escapeLike(pat.Val.Str) + "%")
	}
	ra := sx.reg
	prim := func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
		return primitives.SelLikeVC(dst, regs[ra].Str, m, cur, n)
	}
	return &selLeaf{ev: ev, prim: prim}, nil
}

// boolFallback evaluates an arbitrary boolean expression to a bool vector
// and selects the true positions — the escape hatch for predicates without
// a dedicated selection primitive.
func (fc *filterCompiler) boolFallback(pred Expr) (selNode, error) {
	c := &compiler{inputKinds: fc.inputKinds}
	s, err := c.compileNode(pred)
	if err != nil {
		return nil, err
	}
	s = c.materialize(s)
	ev := finishProgram(c, s.reg)
	ra := s.reg
	prim := func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
		return primitives.SelTrue(dst, regs[ra].Bool, cur, n)
	}
	return &selLeaf{ev: ev, prim: prim}, nil
}

// finishProgram packages a compiler's instruction list as an Evaluator with
// its result in register out — Compile's, or one a selection primitive reads.
func finishProgram(c *compiler, out int) *Evaluator {
	ev := &Evaluator{prog: c.prog, owned: c.owned, out: out, regState: make([]*vec.Vector, c.nRegs)}
	for _, o := range ev.owned {
		ev.regState[o.reg] = vec.New(o.kind, 0) // EvalSel grows it to the batch
	}
	return ev
}

func isConstExpr(e Expr) bool {
	_, ok := e.(*Const)
	return ok
}
