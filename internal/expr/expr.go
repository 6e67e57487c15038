// Package expr defines typed expression trees and their one evaluator: a
// vectorized compiler (compile.go) that turns an expression into a short
// program of primitive calls over vector registers — the X100 execution
// model. Queries run these programs over columns; Fold runs them over one
// row to compute constants, for the optimizer's folding and for INSERT
// values. (The tuple-at-a-time interpreter the paper's >10× claim compares
// against lives with the classic row engine, in internal/rowengine.)
//
// Expression trees reach the compiler already *physical*: the binder has
// resolved names and promoted types (inserting explicit casts), and
// SplitNulls (nulls.go) has decomposed NULLable columns into value/indicator
// pairs, so every node is NULL-oblivious and operates on plain vectors.
package expr

import (
	"fmt"
	"strings"

	"vectorwise/internal/types"
)

// Expr is a typed expression node.
type Expr interface {
	// Type returns the expression's result type.
	Type() types.T
	// String renders the expression for plans and error messages.
	String() string
}

// ColRef references an input column by position in the operator's input
// batch.
type ColRef struct {
	Idx  int
	Name string // for display only
	T    types.T
}

// Type implements Expr.
func (c *ColRef) Type() types.T { return c.T }

// String implements Expr.
func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal.
type Const struct {
	Val types.Value
}

// Type implements Expr.
func (c *Const) Type() types.T { return types.T{Kind: c.Val.Kind, Nullable: c.Val.Null} }

// String implements Expr.
func (c *Const) String() string {
	if c.Val.Kind == types.KindString && !c.Val.Null {
		return "'" + c.Val.Str + "'"
	}
	return c.Val.String()
}

// Call applies a named function to arguments. Names are the canonical
// kernel-function names ("+", "=", "upper", "year", "if", …); see funcs.go
// for the catalog.
type Call struct {
	Fn   string
	Args []Expr
	T    types.T
}

// Type implements Expr.
func (c *Call) Type() types.T { return c.T }

// String implements Expr.
func (c *Call) String() string {
	if isInfix(c.Fn) && len(c.Args) == 2 {
		return "(" + c.Args[0].String() + " " + c.Fn + " " + c.Args[1].String() + ")"
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

func isInfix(fn string) bool {
	switch fn {
	case "+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "and", "or", "||":
		return true
	}
	return false
}

// Convenience constructors used by the planner, rewriter and tests.

// Col builds a column reference.
func Col(idx int, name string, t types.T) *ColRef { return &ColRef{Idx: idx, Name: name, T: t} }

// CBool builds a boolean literal.
func CBool(b bool) *Const { return &Const{Val: types.NewBool(b)} }

// CInt32 builds an INTEGER literal.
func CInt32(i int32) *Const { return &Const{Val: types.NewInt32(i)} }

// CInt builds a BIGINT literal.
func CInt(i int64) *Const { return &Const{Val: types.NewInt64(i)} }

// CFloat builds a DOUBLE literal.
func CFloat(f float64) *Const { return &Const{Val: types.NewFloat64(f)} }

// CStr builds a VARCHAR literal.
func CStr(s string) *Const { return &Const{Val: types.NewString(s)} }

// CDate builds a DATE literal from a day number.
func CDate(d int32) *Const { return &Const{Val: types.NewDate(d)} }

// NewCall resolves the result type of fn over args and builds the node. It
// panics on signature mismatch — planner code paths validate beforehand via
// ResolveFunc, and tests want loud failures.
func NewCall(fn string, args ...Expr) *Call {
	t, err := ResolveFunc(fn, argTypes(args))
	if err != nil {
		panic(err)
	}
	return &Call{Fn: fn, Args: args, T: t}
}

// TryCall is NewCall returning the resolution error instead of panicking.
func TryCall(fn string, args ...Expr) (*Call, error) {
	t, err := ResolveFunc(fn, argTypes(args))
	if err != nil {
		return nil, err
	}
	return &Call{Fn: fn, Args: args, T: t}, nil
}

func argTypes(args []Expr) []types.T {
	out := make([]types.T, len(args))
	for i, a := range args {
		out[i] = a.Type()
	}
	return out
}

// Walk visits e and every descendant in prefix order; f returning false
// prunes the subtree.
func Walk(e Expr, f func(Expr) bool) {
	if !f(e) {
		return
	}
	if c, ok := e.(*Call); ok {
		for _, a := range c.Args {
			Walk(a, f)
		}
	}
}

// Rewrite rebuilds e bottom-up, replacing each node with f(node). Children
// are rewritten before their parent is offered to f.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	if c, ok := e.(*Call); ok {
		args := make([]Expr, len(c.Args))
		changed := false
		for i, a := range c.Args {
			args[i] = Rewrite(a, f)
			if args[i] != a {
				changed = true
			}
		}
		if changed {
			e = &Call{Fn: c.Fn, Args: args, T: c.T}
		}
	}
	return f(e)
}

// Cols returns the distinct input column indexes referenced by e, in first-
// use order.
func Cols(e Expr) []int {
	var out []int
	seen := map[int]bool{}
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColRef); ok && !seen[c.Idx] {
			seen[c.Idx] = true
			out = append(out, c.Idx)
		}
		return true
	})
	return out
}

// Conjuncts splits e at its top-level ANDs, left to right.
func Conjuncts(e Expr) []Expr {
	if c, ok := e.(*Call); ok && c.Fn == "and" {
		return append(Conjuncts(c.Args[0]), Conjuncts(c.Args[1])...)
	}
	return []Expr{e}
}

// ShiftCols returns a copy of e with every column index shifted by delta;
// used when splicing expressions across operator boundaries (e.g. join
// output numbering).
func ShiftCols(e Expr, delta int) Expr {
	return Rewrite(e, func(n Expr) Expr {
		if c, ok := n.(*ColRef); ok {
			return &ColRef{Idx: c.Idx + delta, Name: c.Name, T: c.T}
		}
		return n
	})
}

// RemapCols returns a copy of e with column indexes mapped through m
// (m[old] = new). Missing entries panic: the planner must provide complete
// mappings.
func RemapCols(e Expr, m map[int]int) Expr {
	return Rewrite(e, func(n Expr) Expr {
		if c, ok := n.(*ColRef); ok {
			idx, ok := m[c.Idx]
			if !ok {
				panic(fmt.Sprintf("expr: RemapCols missing mapping for column %d (%s)", c.Idx, c.Name))
			}
			return &ColRef{Idx: idx, Name: c.Name, T: c.T}
		}
		return n
	})
}

// MapCols rewrites e's column references through the old→new position map
// m (m[old] = new), sharing every subtree the map leaves alone; the
// rewriter's column pruning uses it to follow a child that dropped columns.
func MapCols(e Expr, m []int) Expr {
	return Rewrite(e, func(n Expr) Expr {
		if c, ok := n.(*ColRef); ok && m[c.Idx] != c.Idx {
			return Col(m[c.Idx], c.Name, c.T)
		}
		return n
	})
}

// Equal reports structural equality of two expressions (used by CSE and
// subquery re-use in the rewriter).
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *ColRef:
		y, ok := b.(*ColRef)
		return ok && x.Idx == y.Idx
	case *Const:
		y, ok := b.(*Const)
		if !ok || x.Val.Kind != y.Val.Kind || x.Val.Null != y.Val.Null {
			return false
		}
		return x.Val.Null || types.Compare(x.Val, y.Val) == 0
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Fn != y.Fn || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}
