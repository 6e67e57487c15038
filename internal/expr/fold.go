package expr

import (
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// Fold evaluates a column-free expression with the same kernel programs a
// query runs over columns: e is NULL-split, and its value and indicator are
// compiled and run over a one-row, zero-column batch. It returns the value
// (NULL of e's kind when the indicator is set) or the runtime's error. A
// bare constant is returned as is: INSERT rows are mostly literals.
func Fold(e Expr) (types.Value, error) {
	if c, ok := e.(*Const); ok {
		return c.Val, nil
	}
	val, ind, err := SplitNulls(e, nil, nil)
	if err != nil {
		return types.Value{}, err
	}
	// Both run, as a projection runs both over a column: an operand that
	// fails fails the fold even where the result is NULL.
	var out [2]types.Value
	for i, x := range [2]Expr{val, ind} {
		if out[i], err = evalOneRow(x); err != nil {
			return types.Value{}, err
		}
	}
	if out[1].Bool() {
		return types.NewNull(e.Type().Kind), nil
	}
	return out[0], nil
}

// evalOneRow runs a NULL-free, column-free expression over one row.
func evalOneRow(e Expr) (types.Value, error) {
	if c, ok := e.(*Const); ok {
		return c.Val, nil
	}
	ev, err := Compile(e, nil)
	if err != nil {
		return types.Value{}, err
	}
	var b vec.Batch
	b.ForceLen(1)
	out, err := ev.Eval(&b)
	if err != nil {
		return types.Value{}, err
	}
	return out.Get(0), nil
}

// FoldConstants replaces each maximal column-free subtree of e with its
// value, computed by Fold. A subtree whose fold fails (overflow, division by
// zero) stays as it is, so the error surfaces when the query runs.
func FoldConstants(e Expr) Expr {
	c, ok := e.(*Call)
	if !ok {
		return e
	}
	if !readsColumns(c) {
		v, err := Fold(c)
		if err != nil {
			return e
		}
		return &Const{Val: v}
	}
	args := make([]Expr, len(c.Args))
	changed := false
	for i, a := range c.Args {
		args[i] = FoldConstants(a)
		changed = changed || args[i] != a
	}
	if !changed {
		return e
	}
	return &Call{Fn: c.Fn, Args: args, T: c.T}
}

func readsColumns(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if _, ok := n.(*ColRef); ok {
			found = true
		}
		return !found
	})
	return found
}
