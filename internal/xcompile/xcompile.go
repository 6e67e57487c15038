// Package xcompile is the cross compiler of Figure 1: it translates
// optimized relational plans (internal/plan, the "Ingres" representation)
// into the operator tree of internal/physical (the paper's X100 algebra).
// The translation extracts hash-join keys from join conditions and maps
// logical aggregates, join kinds and sort keys onto the kernel's, but
// leaves NULL decomposition and parallelization to the Vectorwise
// rewriter, mirroring the paper's division of labour.
package xcompile

import (
	"fmt"

	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/physical"
	"vectorwise/internal/plan"
)

// Compile translates an optimized logical plan into an operator tree.
func Compile(n plan.Node) (physical.Node, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return &physical.Scan{ScanCols: physical.ScanCols{Spec: t.Spec, Out: t.Spec.Schema()}}, nil
	case *plan.Select:
		child, err := Compile(t.Child)
		if err != nil {
			return nil, err
		}
		return &physical.Select{Child: child, Pred: t.Pred}, nil
	case *plan.Project:
		child, err := Compile(t.Child)
		if err != nil {
			return nil, err
		}
		return &physical.Project{Child: child, Exprs: t.Exprs, Names: t.Names}, nil
	case *plan.Join:
		return compileJoin(t)
	case *plan.Aggregate:
		child, err := Compile(t.Child)
		if err != nil {
			return nil, err
		}
		aggs := make([]exec.AggSpec, len(t.Aggs))
		for i, a := range t.Aggs {
			fn, ok := aggFns[a.Fn]
			if !ok {
				return nil, fmt.Errorf("xcompile: aggregate %q", a.Fn)
			}
			aggs[i] = exec.AggSpec{Fn: fn, Col: a.Col}
		}
		return &physical.HashAgg{Child: child, GroupCols: t.GroupCols, Aggs: aggs, Names: t.Names}, nil
	case *plan.Sort:
		child, err := Compile(t.Child)
		if err != nil {
			return nil, err
		}
		keys := make([]exec.SortKey, len(t.Keys))
		for i, k := range t.Keys {
			keys[i] = exec.SortKey{Col: k.Col, Desc: k.Desc}
		}
		return &physical.Sort{Child: child, Keys: keys}, nil
	case *plan.Limit:
		child, err := Compile(t.Child)
		if err != nil {
			return nil, err
		}
		// Fuse Sort+Limit into TopN (no offset).
		if s, ok := child.(*physical.Sort); ok && t.N >= 0 && t.Offset == 0 {
			return &physical.TopN{Child: s.Child, Keys: s.Keys, N: int(t.N)}, nil
		}
		return &physical.Limit{Child: child, Offset: t.Offset, N: t.N}, nil
	case *plan.Values:
		return &physical.Values{Rows: t.Rows, Out: t.Cols.Clone()}, nil
	}
	return nil, fmt.Errorf("xcompile: unsupported plan node %T", n)
}

// aggFns maps the plan's aggregate names onto the kernel's.
var aggFns = map[string]exec.AggFn{
	"count": exec.AggCount, "sum": exec.AggSum, "min": exec.AggMin,
	"max": exec.AggMax, "avg": exec.AggAvg,
}

// joinTypes maps the plan's join kinds onto the kernel's; a cross join is
// an inner join on a constant key.
var joinTypes = map[plan.JoinKind]exec.JoinType{
	plan.JoinInner: exec.Inner, plan.JoinCross: exec.Inner, plan.JoinLeft: exec.LeftOuter,
	plan.JoinSemi: exec.Semi, plan.JoinAnti: exec.Anti, plan.JoinAntiNull: exec.AntiNullAware,
}

// compileJoin extracts equi-join keys from the ON condition. The other
// conjuncts of an inner join become a Select above it; an inner join with
// no equality at all joins on a constant key, as a cross join does. On any
// other join a conjunct that reads only right-side columns filters the
// right input instead, which is what the ON condition means for it.
func compileJoin(j *plan.Join) (physical.Node, error) {
	left, err := Compile(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := Compile(j.Right)
	if err != nil {
		return nil, err
	}
	nl := j.Left.Schema().Len()
	jt := joinTypes[j.Kind]
	var lk, rk []int
	var residual []expr.Expr
	if j.On != nil {
		for _, c := range expr.Conjuncts(j.On) {
			if l, r, ok := equiPair(c, nl); ok {
				lk = append(lk, l)
				rk = append(rk, r)
			} else {
				residual = append(residual, c)
			}
		}
	}
	if jt == exec.Inner {
		var out physical.Node
		if len(lk) == 0 {
			out = crossJoin(left, right)
		} else {
			out = &physical.HashJoin{Left: left, Right: right, Type: jt,
				LeftKeys: lk, RightKeys: rk, LeftKeyNull: -1, RightKeyNull: -1}
		}
		for _, p := range residual {
			out = &physical.Select{Child: out, Pred: p}
		}
		return out, nil
	}
	if len(lk) == 0 {
		return nil, fmt.Errorf("xcompile: %v join without equality keys", j.Kind)
	}
	for _, p := range residual {
		if !readsOnlyFrom(p, nl) {
			return nil, fmt.Errorf("xcompile: non-equality condition on %v join", jt)
		}
		right = &physical.Select{Child: right, Pred: expr.ShiftCols(p, -nl)}
	}
	return &physical.HashJoin{Left: left, Right: right, Type: jt,
		LeftKeys: lk, RightKeys: rk, LeftKeyNull: -1, RightKeyNull: -1}, nil
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

// readsOnlyFrom reports whether e reads no column below position nl.
func readsOnlyFrom(e expr.Expr, nl int) bool {
	for _, c := range expr.Cols(e) {
		if c < nl {
			return false
		}
	}
	return true
}

// crossJoin pairs every left row with every right row: an inner hash join
// on a constant key column appended to each side, projected away above it.
func crossJoin(left, right physical.Node) physical.Node {
	left2, lkc := appendConst(left)
	right2, rkc := appendConst(right)
	hj := &physical.HashJoin{Left: left2, Right: right2, Type: exec.Inner,
		LeftKeys: []int{lkc}, RightKeys: []int{rkc}, LeftKeyNull: -1, RightKeyNull: -1}
	s := hj.Schema()
	var exprs []expr.Expr
	var names []string
	for i, c := range s.Cols {
		if i == lkc || i == s.Len()-1 { // left helper, right helper
			continue
		}
		exprs = append(exprs, expr.Col(i, c.Name, c.Type))
		names = append(names, c.Name)
	}
	return &physical.Project{Child: hj, Exprs: exprs, Names: names}
}

// appendConst projects an extra constant 1 column (cross-join keys).
func appendConst(n physical.Node) (physical.Node, int) {
	s := n.Schema()
	var exprs []expr.Expr
	var names []string
	for i, c := range s.Cols {
		exprs = append(exprs, expr.Col(i, c.Name, c.Type))
		names = append(names, c.Name)
	}
	exprs = append(exprs, expr.CInt32(1))
	names = append(names, "$one")
	return &physical.Project{Child: n, Exprs: exprs, Names: names}, len(exprs) - 1
}
