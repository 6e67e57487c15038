package expr

import (
	"fmt"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// The vectorized expression compiler. An expression tree is compiled once
// per query into a flat program of instructions over vector registers; at
// run time each batch flows through the program with zero interpretation of
// the tree and zero allocation.
//
// Registers are either *aliases* (column references point straight into the
// input batch — no copy) or *owned* scratch vectors sized to the engine's
// vector length and grown on demand.

// evalCtx is the per-batch execution state threaded through instructions.
type evalCtx struct {
	in   *vec.Batch
	regs []*vec.Vector
	sel  []int32 // selection under which to evaluate (physical positions)
	n    int     // physical row count of the batch
}

// instr is one compiled step.
type instr func(ctx *evalCtx) error

// Evaluator is a compiled expression.
type Evaluator struct {
	prog     []instr
	owned    []ownedReg // registers we must allocate/grow
	out      int        // register holding the result
	regState []*vec.Vector
	ctx      evalCtx // per-call state, kept here so a call allocates nothing
}

type ownedReg struct {
	reg  int
	kind types.Kind
}

// Compile builds an Evaluator for e over inputs with the given kinds.
// Integer arithmetic is always checked: overflow and division by zero are
// errors, as SQL requires.
func Compile(e Expr, inputKinds []types.Kind) (*Evaluator, error) {
	c := &compiler{inputKinds: inputKinds}
	slot, err := c.compileNode(e)
	if err != nil {
		return nil, err
	}
	return finishProgram(c, c.materialize(slot).reg), nil
}

// Eval runs the program over a batch, evaluating only the batch's selected
// positions, and returns the result vector. Result values sit at the same
// physical positions as their input rows (interpret it with the batch's
// selection vector). The returned vector is owned by the evaluator and valid
// until the next Eval.
func (ev *Evaluator) Eval(b *vec.Batch) (*vec.Vector, error) {
	return ev.EvalSel(b, b.Sel)
}

// EvalSel is Eval under an explicit selection (overriding the batch's own).
func (ev *Evaluator) EvalSel(b *vec.Batch, sel []int32) (*vec.Vector, error) {
	n := b.Full()
	for _, o := range ev.owned {
		r := ev.regState[o.reg]
		if r.Cap() < n {
			r.Grow(n)
		}
		r.SetLen(n)
	}
	ctx := &ev.ctx
	*ctx = evalCtx{in: b, regs: ev.regState, sel: sel, n: n}
	for _, ins := range ev.prog {
		if err := ins(ctx); err != nil {
			return nil, err
		}
	}
	return ev.regState[ev.out], nil
}

// compiler state.
type compiler struct {
	inputKinds []types.Kind
	prog       []instr
	nRegs      int
	owned      []ownedReg
}

// argSlot is a compiled operand: either a register or a compile-time
// constant (which primitives consume in their VC shapes without
// materialization).
type argSlot struct {
	reg  int // -1 for constants
	val  types.Value
	kind types.Kind
}

func (s argSlot) isConst() bool { return s.reg < 0 }

func (c *compiler) allocReg(kind types.Kind) int {
	r := c.nRegs
	c.nRegs++
	c.owned = append(c.owned, ownedReg{reg: r, kind: kind})
	return r
}

func (c *compiler) allocAlias() int {
	r := c.nRegs
	c.nRegs++
	return r
}

func (c *compiler) compileNode(e Expr) (argSlot, error) {
	switch n := e.(type) {
	case *Const:
		if n.Val.Null {
			return argSlot{}, fmt.Errorf("expr: NULL literal reached the kernel compiler (SplitNulls must decompose it): %s", e)
		}
		return argSlot{reg: -1, val: n.Val, kind: n.Val.Kind}, nil
	case *ColRef:
		if n.Idx < 0 || n.Idx >= len(c.inputKinds) {
			return argSlot{}, fmt.Errorf("expr: column index %d out of range (input has %d columns)", n.Idx, len(c.inputKinds))
		}
		if got, want := c.inputKinds[n.Idx], n.T.Kind; got != want {
			return argSlot{}, fmt.Errorf("expr: column %d is %v, reference says %v", n.Idx, got, want)
		}
		r := c.allocAlias()
		idx := n.Idx
		c.prog = append(c.prog, func(ctx *evalCtx) error {
			ctx.regs[r] = ctx.in.Vecs[idx]
			return nil
		})
		return argSlot{reg: r, kind: n.T.Kind}, nil
	case *Call:
		switch {
		case n.Fn == "if":
			return c.compileIf(n)
		case isPredicate(n.Fn):
			return c.compilePredicate(n)
		}
		args := make([]argSlot, len(n.Args))
		for i, a := range n.Args {
			if literalOperand(n.Fn, i) {
				a = foldOperand(a)
			}
			s, err := c.compileNode(a)
			if err != nil {
				return argSlot{}, err
			}
			args[i] = s
		}
		dstKind := n.T.Kind
		dst := c.allocReg(dstKind)
		ins, err := buildCall(n.Fn, args, dst, dstKind, c)
		if err != nil {
			return argSlot{}, err
		}
		c.prog = append(c.prog, ins)
		return argSlot{reg: dst, kind: dstKind}, nil
	default:
		return argSlot{}, fmt.Errorf("expr: cannot compile node %T", e)
	}
}

// materialize returns a register that holds the constant expanded to the
// batch length; used by builders that lack a constant-operand shape.
func (c *compiler) materialize(s argSlot) argSlot {
	if !s.isConst() {
		return s
	}
	r := c.allocReg(s.kind)
	val := s.val
	c.prog = append(c.prog, func(ctx *evalCtx) error {
		ctx.regs[r].Fill(val, ctx.n)
		return nil
	})
	return argSlot{reg: r, kind: s.kind}
}

// literalOperand reports whether argument i of fn must be a literal: a
// pattern, a pad width or string, a rounding scale. The builders have no
// column form for these.
func literalOperand(fn string, i int) bool {
	switch fn {
	case "replace", "lpad", "rpad":
		return i > 0
	case "position", "like", "starts_with", "ends_with", "contains", "round":
		return i == 1
	}
	return false
}

// foldOperand turns a column-free operand that must be a literal (a negated
// pad width, say) into one; anything else is left for the builder to refuse.
func foldOperand(a Expr) Expr {
	if _, ok := a.(*Call); !ok || readsColumns(a) {
		return a
	}
	v, err := Fold(a)
	if err != nil {
		return a
	}
	return &Const{Val: v}
}
