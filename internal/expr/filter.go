package expr

import (
	"fmt"

	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// The predicate compiler turns a boolean expression into a *selection
// program*: instead of materializing a bool vector and then scanning it,
// comparisons compile directly to Sel* primitives that shrink a selection
// vector. It is the only code that evaluates a predicate: a WHERE clause
// runs it as a Filter, an if runs its condition with it, and a predicate
// whose value is projected writes its result as a bool vector
// (compilePredicate).
//
// AND and OR follow one rule: an operand runs only on the rows the operands
// to its left leave undecided. AND's right term sees the rows its left term
// selected, OR's right term the rows its left term rejected, so an operand
// that would fail (an overflow, a division by zero) never runs on a row the
// left operand already decided — the rule of the row interpreter's
// three-valued AND and OR.

// Filter is a compiled predicate. It owns its per-batch state, so applying
// it allocates nothing once its selection buffers have grown.
type Filter struct {
	root selNode
	ctx  evalCtx
}

type selNode interface {
	// apply narrows cur (physical positions, sorted; nil = all ctx.n rows)
	// and returns the surviving selection, never nil. It reads only ctx.in
	// and ctx.n. The returned slice is owned by the node and valid until
	// its next apply.
	apply(ctx *evalCtx, cur []int32) ([]int32, error)
}

// selPrim runs one selection primitive over operand registers.
type selPrim func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32

// CompileFilter builds a Filter for pred over inputs of the given kinds.
func CompileFilter(pred Expr, inputKinds []types.Kind) (*Filter, error) {
	if pred.Type().Kind != types.KindBool {
		return nil, fmt.Errorf("expr: filter predicate has type %v, want BOOLEAN", pred.Type())
	}
	root, err := compilePred(pred, inputKinds)
	if err != nil {
		return nil, err
	}
	return &Filter{root: root}, nil
}

// Apply evaluates the filter over a batch and returns the selection of
// qualifying physical positions (subset of b.Sel, or of all rows when b.Sel
// is nil). The result is owned by the filter and valid until the next Apply.
func (f *Filter) Apply(b *vec.Batch) ([]int32, error) {
	f.ctx = evalCtx{in: b, n: b.Full()}
	return f.root.apply(&f.ctx, b.Sel)
}

// compilePredicate compiles a predicate whose value is projected: its
// selection program runs under the incoming selection, and the result is
// false at every candidate, then true at the survivors.
func (c *compiler) compilePredicate(n *Call) (argSlot, error) {
	root, err := compilePred(n, c.inputKinds)
	if err != nil {
		return argSlot{}, err
	}
	dst := c.allocReg(types.KindBool)
	c.prog = append(c.prog, func(ctx *evalCtx) error {
		res, err := root.apply(ctx, ctx.sel)
		if err != nil {
			return err
		}
		d := ctx.regs[dst].Bool
		if ctx.sel == nil {
			clear(d[:ctx.n])
		} else {
			for _, i := range ctx.sel {
				d[i] = false
			}
		}
		for _, i := range res {
			d[i] = true
		}
		return nil
	})
	return argSlot{reg: dst, kind: types.KindBool}, nil
}

// isPredicate reports whether fn has a selection program of its own; any
// other boolean expression selects through its bool value (boolFallback).
func isPredicate(fn string) bool {
	switch fn {
	case "and", "or", "not", "=", "<>", "<", "<=", ">", ">=",
		"between", "like", "starts_with", "ends_with", "contains":
		return true
	}
	return false
}

type filterCompiler struct {
	inputKinds []types.Kind
}

func compilePred(pred Expr, inputKinds []types.Kind) (selNode, error) {
	return (&filterCompiler{inputKinds: inputKinds}).compile(pred)
}

func (fc *filterCompiler) compile(pred Expr) (selNode, error) {
	call, ok := pred.(*Call)
	if !ok || !isPredicate(call.Fn) {
		return fc.boolFallback(pred)
	}
	switch call.Fn {
	case "and", "or":
		l, err := fc.compile(call.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := fc.compile(call.Args[1])
		if err != nil {
			return nil, err
		}
		if call.Fn == "and" {
			return &selAnd{l: l, r: r}, nil
		}
		return &selOr{l: l, r: r}, nil
	case "not":
		child, err := fc.compile(call.Args[0])
		if err != nil {
			return nil, err
		}
		return &selNot{child: child}, nil
	case "between":
		return fc.compileBetween(call)
	case "like", "starts_with", "ends_with", "contains":
		return fc.compileLike(call)
	}
	return fc.compileCmp(call)
}

// selAnd narrows left-to-right: the right term only sees left survivors.
type selAnd struct{ l, r selNode }

func (s *selAnd) apply(ctx *evalCtx, cur []int32) ([]int32, error) {
	mid, err := s.l.apply(ctx, cur)
	if err != nil || len(mid) == 0 {
		return mid, err
	}
	return s.r.apply(ctx, mid)
}

// selOr runs the right term only on the rows the left term rejected and
// joins the two selections.
type selOr struct {
	l, r      selNode
	rest, buf []int32
}

func (s *selOr) apply(ctx *evalCtx, cur []int32) ([]int32, error) {
	lres, err := s.l.apply(ctx, cur)
	if err != nil {
		return nil, err
	}
	s.rest = primitives.SelComplement(s.rest, lres, cur, ctx.n)
	if len(s.rest) == 0 {
		return lres, nil
	}
	rres, err := s.r.apply(ctx, s.rest)
	if err != nil || len(rres) == 0 {
		return lres, err
	}
	s.buf = vec.OrSel(s.buf, lres, rres, ctx.n)
	return s.buf, nil
}

// selNot complements the child within the incoming selection.
type selNot struct {
	child selNode
	buf   []int32
}

func (s *selNot) apply(ctx *evalCtx, cur []int32) ([]int32, error) {
	res, err := s.child.apply(ctx, cur)
	if err != nil {
		return nil, err
	}
	s.buf = primitives.SelComplement(s.buf, res, cur, ctx.n)
	return s.buf, nil
}

// selLeaf runs a prelude program (map instructions computing operand
// registers under the current selection) and then one selection primitive.
type selLeaf struct {
	ev   *Evaluator // operand program; may hold no instructions
	prim selPrim
	dst  []int32
}

func (s *selLeaf) apply(ctx *evalCtx, cur []int32) ([]int32, error) {
	if _, err := s.ev.EvalSel(ctx.in, cur); err != nil {
		return nil, err
	}
	s.dst = s.prim(s.dst, s.ev.regState, cur, ctx.n)
	return s.dst, nil
}

// compileCmp builds a comparison leaf. Operand subexpressions are compiled
// into a shared evaluator whose registers the selection primitive reads; a
// constant operand stays a constant, on the right.
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
	sb, err := c.compileNode(b)
	if err != nil {
		return nil, err
	}
	sa = c.materialize(sa)
	ev := finishProgram(c, sa.reg)

	var prim selPrim
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
		prim, err = selEqPrim(fn, sa.reg, sb, sBool, cBool)
	default:
		return nil, fmt.Errorf("expr: filter comparison on %v", a.Type().Kind)
	}
	if err != nil {
		return nil, err
	}
	return &selLeaf{ev: ev, prim: prim}, nil
}

func mirrorCmp(fn string) string {
	switch fn {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return fn // = and <> are symmetric
}

// selCmpPrim binds a comparison over an ordered kind to its primitive.
func selCmpPrim[T primitives.Ordered](fn string, ra int, b argSlot,
	sl func(*vec.Vector) []T, cv func(types.Value) T) (selPrim, error) {
	switch fn {
	case "<":
		return bindSel(ra, b, sl, cv, primitives.SelLtVC[T], primitives.SelLtVV[T]), nil
	case "<=":
		return bindSel(ra, b, sl, cv, primitives.SelLeVC[T], primitives.SelLeVV[T]), nil
	case ">":
		return bindSel(ra, b, sl, cv, primitives.SelGtVC[T], primitives.SelGtVV[T]), nil
	case ">=":
		return bindSel(ra, b, sl, cv, primitives.SelGeVC[T], primitives.SelGeVV[T]), nil
	}
	return selEqPrim(fn, ra, b, sl, cv)
}

// selEqPrim binds = or <> to its primitive; BOOLEAN has only these two.
func selEqPrim[T comparable](fn string, ra int, b argSlot,
	sl func(*vec.Vector) []T, cv func(types.Value) T) (selPrim, error) {
	switch fn {
	case "=":
		return bindSel(ra, b, sl, cv, primitives.SelEqVC[T], primitives.SelEqVV[T]), nil
	case "<>":
		return bindSel(ra, b, sl, cv, primitives.SelNeVC[T], primitives.SelNeVV[T]), nil
	}
	return nil, fmt.Errorf("expr: comparison %q on %T", fn, *new(T))
}

// bindSel binds the VC shape of a comparison when b is a constant, the VV
// shape otherwise.
func bindSel[T any](ra int, b argSlot, sl func(*vec.Vector) []T, cv func(types.Value) T,
	vc func([]int32, []T, T, []int32, int) []int32,
	vv func([]int32, []T, []T, []int32, int) []int32) selPrim {
	if b.isConst() {
		k := cv(b.val)
		return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
			return vc(dst, sl(regs[ra]), k, cur, n)
		}
	}
	rb := b.reg
	return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
		return vv(dst, sl(regs[ra]), sl(regs[rb]), cur, n)
	}
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
	var prim selPrim
	switch x.Type().Kind {
	case types.KindInt32, types.KindDate:
		prim = selBetweenPrim(sx.reg, loV, hiV, sI32, cI32)
	case types.KindInt64:
		prim = selBetweenPrim(sx.reg, loV, hiV, sI64, cI64)
	case types.KindFloat64:
		prim = selBetweenPrim(sx.reg, loV, hiV, sF64, cF64)
	case types.KindString:
		prim = selBetweenPrim(sx.reg, loV, hiV, sStr, cStr)
	default:
		return nil, fmt.Errorf("expr: between on %v", x.Type().Kind)
	}
	return &selLeaf{ev: ev, prim: prim}, nil
}

func selBetweenPrim[T primitives.Ordered](ra int, lo, hi types.Value,
	sl func(*vec.Vector) []T, cv func(types.Value) T) selPrim {
	a, b := cv(lo), cv(hi)
	return func(dst []int32, regs []*vec.Vector, cur []int32, n int) []int32 {
		return primitives.SelBetweenVCC(dst, sl(regs[ra]), a, b, cur, n)
	}
}

// compileLike builds a pattern-selection leaf (constant pattern only).
func (fc *filterCompiler) compileLike(call *Call) (selNode, error) {
	pat, ok := foldOperand(call.Args[1]).(*Const)
	if !ok {
		return nil, fmt.Errorf("expr: %s pattern must be constant", call.Fn)
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

// boolFallback evaluates a boolean expression that is not a predicate (a
// column, a constant, an if) to a bool vector and selects the true
// positions.
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
