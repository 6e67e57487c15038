// Package xcompile is the cross compiler of Figure 1: it translates
// optimized relational plans (internal/plan, the "Ingres" representation)
// into X100 algebra (internal/algebra). The translation extracts hash-join
// keys from join conditions, maps logical join kinds onto kernel join
// types and prepares sort keys — but leaves NULL decomposition and
// parallelization to the Vectorwise rewriter, mirroring the paper's
// division of labour.
package xcompile

import (
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/expr"
	"vectorwise/internal/plan"
	"vectorwise/internal/types"
)

// Compile translates an optimized logical plan into X100 algebra.
func Compile(n plan.Node) (algebra.Node, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return &algebra.Scan{Spec: t.Spec, Out: t.Spec.Schema()}, nil
	case *plan.Select:
		child, err := Compile(t.Child)
		if err != nil {
			return nil, err
		}
		return &algebra.Select{Child: child, Pred: t.Pred}, nil
	case *plan.Project:
		child, err := Compile(t.Child)
		if err != nil {
			return nil, err
		}
		return &algebra.Project{Child: child, Exprs: t.Exprs, Names: t.Names}, nil
	case *plan.Join:
		return compileJoin(t)
	case *plan.Aggregate:
		child, err := Compile(t.Child)
		if err != nil {
			return nil, err
		}
		aggs := make([]algebra.AggItem, len(t.Aggs))
		for i, a := range t.Aggs {
			aggs[i] = algebra.AggItem{Fn: a.Fn, Col: a.Col}
		}
		return &algebra.Aggr{Child: child, GroupCols: t.GroupCols, Aggs: aggs, Names: t.Names}, nil
	case *plan.Sort:
		child, err := Compile(t.Child)
		if err != nil {
			return nil, err
		}
		keys := make([]algebra.SortKey, len(t.Keys))
		for i, k := range t.Keys {
			keys[i] = algebra.SortKey{Col: k.Col, Desc: k.Desc}
		}
		return &algebra.Sort{Child: child, Keys: keys}, nil
	case *plan.Limit:
		child, err := Compile(t.Child)
		if err != nil {
			return nil, err
		}
		// Fuse Sort+Limit into TopN (no offset).
		if s, ok := child.(*algebra.Sort); ok && t.N >= 0 && t.Offset == 0 {
			return &algebra.TopN{Child: s.Child, Keys: s.Keys, N: t.N}, nil
		}
		return &algebra.Limit{Child: child, Offset: t.Offset, N: t.N}, nil
	case *plan.Values:
		return &algebra.Values{Rows: t.Rows, Out: t.Cols.Clone()}, nil
	}
	return nil, fmt.Errorf("xcompile: unsupported plan node %T", n)
}

// compileJoin extracts equi-join keys from the ON condition.
func compileJoin(j *plan.Join) (algebra.Node, error) {
	left, err := Compile(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := Compile(j.Right)
	if err != nil {
		return nil, err
	}
	nl := j.Left.Schema().Len()
	var kind algebra.JoinKind
	switch j.Kind {
	case plan.JoinInner, plan.JoinCross:
		kind = algebra.Inner
	case plan.JoinLeft:
		kind = algebra.LeftOuter
	case plan.JoinSemi:
		kind = algebra.Semi
	case plan.JoinAnti:
		kind = algebra.Anti
	case plan.JoinAntiNull:
		kind = algebra.AntiNullAware
	}
	var lk, rk []int
	var residual []expr.Expr
	if j.On != nil {
		for _, c := range conjuncts(j.On) {
			l, r, ok := equiPair(c, nl)
			if ok {
				lk = append(lk, l)
				rk = append(rk, r)
			} else {
				residual = append(residual, c)
			}
		}
	}
	if len(lk) == 0 {
		if j.Kind == plan.JoinCross {
			// Pure Cartesian product: join on a constant key.
			left2, lkc := appendConst(left)
			right2, rkc := appendConst(right)
			hj := &algebra.HashJoin{Left: left2, Right: right2, Kind: algebra.Inner,
				LeftKeys: []int{lkc}, RightKeys: []int{rkc}, LeftKeyNull: -1, RightKeyNull: -1}
			out := dropJoinHelperCols(hj, lkc, left.Schema().Len(), right.Schema().Len())
			return withResidual(out, residual, nil), nil
		}
		return nil, fmt.Errorf("xcompile: %v join without equality keys", j.Kind)
	}
	hj := &algebra.HashJoin{Left: left, Right: right, Kind: kind,
		LeftKeys: lk, RightKeys: rk, LeftKeyNull: -1, RightKeyNull: -1}
	var out algebra.Node = hj
	if len(residual) > 0 {
		if kind != algebra.Inner {
			return nil, fmt.Errorf("xcompile: non-equality condition on %v join", kind)
		}
		out = withResidual(out, residual, nil)
	}
	return out, nil
}

func conjuncts(e expr.Expr) []expr.Expr {
	if c, ok := e.(*expr.Call); ok && c.Fn == "and" {
		return append(conjuncts(c.Args[0]), conjuncts(c.Args[1])...)
	}
	return []expr.Expr{e}
}

// equiPair recognizes `leftcol = rightcol` across the boundary nl.
func equiPair(e expr.Expr, nl int) (int, int, bool) {
	c, ok := e.(*expr.Call)
	if !ok || c.Fn != "=" {
		return 0, 0, false
	}
	a, okA := c.Args[0].(*expr.ColRef)
	b, okB := c.Args[1].(*expr.ColRef)
	if !okA || !okB {
		return 0, 0, false
	}
	switch {
	case a.Idx < nl && b.Idx >= nl:
		return a.Idx, b.Idx - nl, true
	case b.Idx < nl && a.Idx >= nl:
		return b.Idx, a.Idx - nl, true
	}
	return 0, 0, false
}

// appendConst projects an extra constant 1 column (cross-join keys).
func appendConst(n algebra.Node) (algebra.Node, int) {
	s := n.Schema()
	var exprs []expr.Expr
	var names []string
	for i, c := range s.Cols {
		exprs = append(exprs, expr.Col(i, c.Name, c.Type))
		names = append(names, c.Name)
	}
	exprs = append(exprs, expr.CInt32(1))
	names = append(names, "$one")
	return &algebra.Project{Child: n, Exprs: exprs, Names: names}, len(exprs) - 1
}

// dropJoinHelperCols removes the two constant key columns from an inner
// join of (left+1) x (right+1) columns.
func dropJoinHelperCols(j algebra.Node, leftHelper, nl, nr int) algebra.Node {
	s := j.Schema()
	var exprs []expr.Expr
	var names []string
	for i := 0; i < s.Len(); i++ {
		if i == leftHelper || i == nl+1+nr { // left helper, right helper
			continue
		}
		exprs = append(exprs, expr.Col(i, s.Cols[i].Name, s.Cols[i].Type))
		names = append(names, s.Cols[i].Name)
	}
	return &algebra.Project{Child: j, Exprs: exprs, Names: names}
}

func withResidual(n algebra.Node, preds []expr.Expr, _ *types.Schema) algebra.Node {
	out := n
	for _, p := range preds {
		out = &algebra.Select{Child: out, Pred: p}
	}
	return out
}
