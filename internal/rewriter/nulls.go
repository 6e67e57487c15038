package rewriter

import (
	"fmt"

	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/physical"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// NULL decomposition. Every node of the tree is rewritten into one whose
// columns are all non-nullable; each logical column is represented by a
// value column (holding an in-band "safe" value at NULL positions) and, when
// nullable, a BOOL indicator column. Convention: a node's physical layout is
// [values in logical order] ++ [indicators of nullable columns in logical
// order] — the same convention the engine uses for table storage, so scans
// are trivial.

// PhysicalSchema derives the storage layout for a logical table schema.
func PhysicalSchema(logical *types.Schema) *types.Schema {
	out := &types.Schema{}
	for _, c := range logical.Cols {
		out.Cols = append(out.Cols, types.Col(c.Name, c.Type.NotNull()))
	}
	for _, c := range logical.Cols {
		if c.Type.Nullable {
			out.Cols = append(out.Cols, types.Col(c.Name+"$null", types.Bool))
		}
	}
	return out
}

// PhysicalColMap maps a logical schema onto PhysicalSchema's layout.
func PhysicalColMap(logical *types.Schema) ColMap {
	cm := ColMap{Val: make([]int, logical.Len()), Ind: make([]int, logical.Len())}
	ind := logical.Len()
	for i, c := range logical.Cols {
		cm.Val[i] = i
		if c.Type.Nullable {
			cm.Ind[i] = ind
			ind++
		} else {
			cm.Ind[i] = -1
		}
	}
	return cm
}

// decompose rewrites n into a NULL-free tree.
func decompose(n physical.Node) (physical.Node, ColMap, error) {
	switch t := n.(type) {
	case *physical.Scan:
		// The physical list is derived here, from the spec's logical schema
		// (the table's, whole: pruning runs after decomposition). Value
		// columns occupy the same positions in it (values first, indicators
		// after). NULL positions hold in-band safe values, which only widen
		// block summaries — skipping stays conservative.
		out := *t
		out.Out = PhysicalSchema(t.Spec.Cols)
		cm := PhysicalColMap(t.Spec.Cols)
		if t.Spec.RID {
			// The position column is made by the scan operator, not read from
			// storage: it trails the stored list, indicators included.
			cm.Val = append(cm.Val, out.Out.Len())
			cm.Ind = append(cm.Ind, -1)
			out.Out.Cols = append(out.Out.Cols, types.Col(scanspec.RIDName, types.Int64))
		}
		return &out, cm, nil

	case *physical.Values:
		logical := t.Out
		phys := PhysicalSchema(logical)
		cm := PhysicalColMap(logical)
		rows := make([][]types.Value, len(t.Rows))
		for r, row := range t.Rows {
			nr := make([]types.Value, phys.Len())
			for i, v := range row {
				if v.Null {
					nr[cm.Val[i]] = types.SafeValue(logical.Cols[i].Type.Kind)
					if cm.Ind[i] < 0 {
						return nil, ColMap{}, fmt.Errorf("rewriter: NULL in non-nullable VALUES column %d", i)
					}
				} else {
					nr[cm.Val[i]] = v
				}
				if cm.Ind[i] >= 0 {
					nr[cm.Ind[i]] = types.NewBool(v.Null)
				}
			}
			rows[r] = nr
		}
		return &physical.Values{Rows: rows, Out: phys}, cm, nil

	case *physical.Select:
		child, cm, err := decompose(t.Child)
		if err != nil {
			return nil, ColMap{}, err
		}
		val, ind, err := expr.SplitNulls(t.Pred, cm.Val, cm.Ind)
		if err != nil {
			return nil, ColMap{}, err
		}
		// SQL filters keep rows where the predicate is TRUE (not NULL).
		pred := expr.And(val, expr.Not(ind))
		return &physical.Select{Child: child, Pred: pred}, cm, nil

	case *physical.Project:
		child, cm, err := decompose(t.Child)
		if err != nil {
			return nil, ColMap{}, err
		}
		var exprs []expr.Expr
		var names []string
		outMap := ColMap{}
		var indExprs []expr.Expr
		var indNames []string
		for i, e := range t.Exprs {
			val, ind, err := expr.SplitNulls(e, cm.Val, cm.Ind)
			if err != nil {
				return nil, ColMap{}, err
			}
			outMap.Val = append(outMap.Val, len(exprs))
			exprs = append(exprs, val)
			names = append(names, t.Names[i])
			if expr.IsFalse(ind) {
				outMap.Ind = append(outMap.Ind, -1)
			} else {
				outMap.Ind = append(outMap.Ind, -2-len(indExprs)) // patched below
				indExprs = append(indExprs, ind)
				indNames = append(indNames, t.Names[i]+"$null")
			}
		}
		base := len(exprs)
		for i := range outMap.Ind {
			if outMap.Ind[i] < -1 {
				outMap.Ind[i] = base + (-outMap.Ind[i] - 2)
			}
		}
		exprs = append(exprs, indExprs...)
		names = append(names, indNames...)
		return &physical.Project{Child: child, Exprs: exprs, Names: names}, outMap, nil

	case *physical.HashAgg:
		return decomposeAgg(t)

	case *physical.HashJoin:
		return decomposeJoin(t)

	case *physical.Sort:
		child, cm, err := decompose(t.Child)
		if err != nil {
			return nil, ColMap{}, err
		}
		var keys []exec.SortKey
		for _, k := range t.Keys {
			if cm.Ind[k.Col] >= 0 {
				// NULLs sort together (last): indicator is the major key.
				keys = append(keys, exec.SortKey{Col: cm.Ind[k.Col]})
			}
			keys = append(keys, exec.SortKey{Col: cm.Val[k.Col], Desc: k.Desc})
		}
		return &physical.Sort{Child: child, Keys: keys}, cm, nil

	case *physical.TopN:
		child, cm, err := decompose(t.Child)
		if err != nil {
			return nil, ColMap{}, err
		}
		var keys []exec.SortKey
		for _, k := range t.Keys {
			if cm.Ind[k.Col] >= 0 {
				keys = append(keys, exec.SortKey{Col: cm.Ind[k.Col]})
			}
			keys = append(keys, exec.SortKey{Col: cm.Val[k.Col], Desc: k.Desc})
		}
		return &physical.TopN{Child: child, Keys: keys, N: t.N}, cm, nil

	case *physical.Limit:
		child, cm, err := decompose(t.Child)
		if err != nil {
			return nil, ColMap{}, err
		}
		return &physical.Limit{Child: child, Offset: t.Offset, N: t.N}, cm, nil
	}
	return nil, ColMap{}, fmt.Errorf("rewriter: cannot decompose %T", n)
}

// --- aggregates ---

// decomposeAgg aggregates the decomposed child's columns directly. A
// NULLable group column groups by its value and its indicator, so NULL
// keys form one group of their own. An aggregate over a NULLable column
// reads the value column and skips the rows its indicator marks; its result
// is NULL where its group has no non-NULL row, which one COUNT per such
// column, shared by its aggregates, tells.
func decomposeAgg(t *physical.HashAgg) (physical.Node, ColMap, error) {
	child, cm, err := decompose(t.Child)
	if err != nil {
		return nil, ColMap{}, err
	}
	var groupCols []int
	keys := ColMap{} // each group column's value and indicator among groupCols
	for _, g := range t.GroupCols {
		keys.Val = append(keys.Val, len(groupCols))
		groupCols = append(groupCols, cm.Val[g])
		keys.Ind = append(keys.Ind, -1)
		if cm.Ind[g] >= 0 {
			keys.Ind[len(keys.Ind)-1] = len(groupCols)
			groupCols = append(groupCols, cm.Ind[g])
		}
	}
	var aggs []exec.AggSpec
	addAgg := func(a exec.AggSpec) int {
		aggs = append(aggs, a)
		return len(aggs) - 1
	}
	nonNull := map[int]int{} // logical column → its non-NULL count
	nonNullCount := func(col int) int {
		idx, ok := nonNull[col]
		if !ok {
			idx = addAgg(exec.AggSpec{Fn: exec.AggCount, Col: -1}.WithInd(cm.Ind[col]))
			nonNull[col] = idx
		}
		return idx
	}
	outPos := make([]int, len(t.Aggs))
	nullFrom := make([]int, len(t.Aggs)) // the non-NULL count deciding NULL, or -1
	for ai, a := range t.Aggs {
		nullFrom[ai] = -1
		switch {
		case a.Fn == exec.AggCount && (a.Col < 0 || cm.Ind[a.Col] < 0):
			outPos[ai] = addAgg(exec.AggSpec{Fn: exec.AggCount, Col: -1})
		case a.Fn == exec.AggCount:
			outPos[ai] = nonNullCount(a.Col)
		case cm.Ind[a.Col] < 0:
			outPos[ai] = addAgg(exec.AggSpec{Fn: a.Fn, Col: cm.Val[a.Col]})
		default:
			outPos[ai] = addAgg(exec.AggSpec{Fn: a.Fn, Col: cm.Val[a.Col]}.WithInd(cm.Ind[a.Col]))
			nullFrom[ai] = nonNullCount(a.Col)
		}
	}
	aggNames := make([]string, len(groupCols)+len(aggs))
	for i := range aggNames {
		aggNames[i] = fmt.Sprintf("$o%d", i)
	}
	aggNode := &physical.HashAgg{Child: child, GroupCols: groupCols, Aggs: aggs, Names: aggNames}
	aggSchema := aggNode.Schema()
	aggColE := func(idx int) expr.Expr {
		c := aggSchema.Cols[idx]
		return expr.Col(idx, c.Name, c.Type.NotNull())
	}
	// Post-projection: group outputs in logical order, then aggregate
	// values, then indicators.
	var post []expr.Expr
	var postNames []string
	finalMap := ColMap{}
	var inds []expr.Expr
	var indNames []string
	pushOut := func(val expr.Expr, ind expr.Expr, name string) {
		finalMap.Val = append(finalMap.Val, len(post))
		post = append(post, val)
		postNames = append(postNames, name)
		if ind == nil {
			finalMap.Ind = append(finalMap.Ind, -1)
		} else {
			finalMap.Ind = append(finalMap.Ind, -2-len(inds))
			inds = append(inds, ind)
			indNames = append(indNames, name+"$null")
		}
	}
	for i := range t.GroupCols {
		var ind expr.Expr
		if keys.Ind[i] >= 0 {
			ind = aggColE(keys.Ind[i])
		}
		pushOut(aggColE(keys.Val[i]), ind, t.Names[i])
	}
	for ai := range t.Aggs {
		var ind expr.Expr
		if nullFrom[ai] >= 0 {
			ind = expr.NewCall("=", aggColE(len(groupCols)+nullFrom[ai]), expr.CInt(0))
		}
		pushOut(aggColE(len(groupCols)+outPos[ai]), ind, t.Names[len(t.GroupCols)+ai])
	}
	base := len(post)
	for i := range finalMap.Ind {
		if finalMap.Ind[i] < -1 {
			finalMap.Ind[i] = base + (-finalMap.Ind[i] - 2)
		}
	}
	post = append(post, inds...)
	postNames = append(postNames, indNames...)
	return &physical.Project{Child: aggNode, Exprs: post, Names: postNames}, finalMap, nil
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// --- joins (including the C10 anti-join intricacies) ---

func decomposeJoin(t *physical.HashJoin) (physical.Node, ColMap, error) {
	left, lcm, err := decompose(t.Left)
	if err != nil {
		return nil, ColMap{}, err
	}
	right, rcm, err := decompose(t.Right)
	if err != nil {
		return nil, ColMap{}, err
	}
	// Physical key columns.
	lk := make([]int, len(t.LeftKeys))
	rk := make([]int, len(t.RightKeys))
	lNullable := false

	var lIndCols, rIndCols []int
	for i := range t.LeftKeys {
		lk[i] = lcm.Val[t.LeftKeys[i]]
		rk[i] = rcm.Val[t.RightKeys[i]]
		if li := lcm.Ind[t.LeftKeys[i]]; li >= 0 {
			lNullable = true
			lIndCols = append(lIndCols, li)
		} else {
			lIndCols = append(lIndCols, -1)
		}
		if ri := rcm.Ind[t.RightKeys[i]]; ri >= 0 {

			rIndCols = append(rIndCols, ri)
		} else {
			rIndCols = append(rIndCols, -1)
		}
	}
	switch t.Type {
	case exec.Inner, exec.Semi:
		// NULL keys never match: filter both sides.
		left = filterNotNullKeys(left, lIndCols)
		right = filterNotNullKeys(right, rIndCols)
	case exec.LeftOuter, exec.Anti:
		// Probe rows must survive; only the build side is filtered. To keep
		// safe values from falsely matching, nullable probe keys gain the
		// indicator as an extra key column against constant FALSE on the
		// build side.
		right = filterNotNullKeys(right, rIndCols)
		if lNullable {
			var extraRight []int
			right, extraRight = appendFalseCols(right, countNonNeg(lIndCols))
			ei := 0
			for _, li := range lIndCols {
				if li < 0 {
					continue
				}
				lk = append(lk, li)
				rk = append(rk, extraRight[ei])
				ei++
			}
		}
	case exec.AntiNullAware:
		if len(t.LeftKeys) != 1 {
			return nil, ColMap{}, fmt.Errorf("rewriter: multi-key NOT IN is not supported")
		}
	}
	hj := &physical.HashJoin{Left: left, Right: right, Type: t.Type,
		LeftKeys: lk, RightKeys: rk, LeftKeyNull: -1, RightKeyNull: -1}
	if t.Type == exec.AntiNullAware {
		hj.LeftKeyNull = lIndCols[0]  // may be -1 (non-nullable side)
		hj.RightKeyNull = rIndCols[0] // may be -1
	}
	switch t.Type {
	case exec.Semi, exec.Anti, exec.AntiNullAware:
		return hj, lcm, nil
	case exec.Inner:
		cm := ColMap{}
		nlPhys := left.Schema().Len()
		cm.Val = append(cm.Val, lcm.Val...)
		cm.Ind = append(cm.Ind, lcm.Ind...)
		for _, v := range rcm.Val {
			cm.Val = append(cm.Val, nlPhys+v)
		}
		for _, v := range rcm.Ind {
			if v < 0 {
				cm.Ind = append(cm.Ind, -1)
			} else {
				cm.Ind = append(cm.Ind, nlPhys+v)
			}
		}
		return hj, cm, nil
	case exec.LeftOuter:
		hj.WithMatch = true
		js := hj.Schema()
		matchIdx := js.Len() - 1
		jcolE := func(idx int) expr.Expr {
			c := js.Cols[idx]
			return expr.Col(idx, c.Name, c.Type.NotNull())
		}
		notMatch := expr.NewCall("not", jcolE(matchIdx))
		var exprs []expr.Expr
		var names []string
		cm := ColMap{}
		var inds []expr.Expr
		var indNames []string
		nlPhys := left.Schema().Len()
		// Left columns pass through.
		for i := range lcm.Val {
			cm.Val = append(cm.Val, len(exprs))
			exprs = append(exprs, jcolE(lcm.Val[i]))
			names = append(names, fmt.Sprintf("l%d", i))
			if lcm.Ind[i] >= 0 {
				cm.Ind = append(cm.Ind, -2-len(inds))
				inds = append(inds, jcolE(lcm.Ind[i]))
				indNames = append(indNames, fmt.Sprintf("l%d$null", i))
			} else {
				cm.Ind = append(cm.Ind, -1)
			}
		}
		// Right columns: indicator = own indicator OR NOT matched.
		for j := range rcm.Val {
			cm.Val = append(cm.Val, len(exprs))
			exprs = append(exprs, jcolE(nlPhys+rcm.Val[j]))
			names = append(names, fmt.Sprintf("r%d", j))
			var ind expr.Expr = notMatch
			if rcm.Ind[j] >= 0 {
				ind = expr.NewCall("or", jcolE(nlPhys+rcm.Ind[j]), notMatch)
			}
			cm.Ind = append(cm.Ind, -2-len(inds))
			inds = append(inds, ind)
			indNames = append(indNames, fmt.Sprintf("r%d$null", j))
		}
		base := len(exprs)
		for i := range cm.Ind {
			if cm.Ind[i] < -1 {
				cm.Ind[i] = base + (-cm.Ind[i] - 2)
			}
		}
		exprs = append(exprs, inds...)
		names = append(names, indNames...)
		return &physical.Project{Child: hj, Exprs: exprs, Names: names}, cm, nil
	}
	return nil, ColMap{}, fmt.Errorf("rewriter: join kind %v", t.Type)
}

func countNonNeg(xs []int) int {
	n := 0
	for _, x := range xs {
		if x >= 0 {
			n++
		}
	}
	return n
}

// filterNotNullKeys adds Select(NOT ind…) for each nullable key indicator.
func filterNotNullKeys(n physical.Node, indCols []int) physical.Node {
	s := n.Schema()
	for _, ic := range indCols {
		if ic < 0 {
			continue
		}
		pred := expr.NewCall("not", expr.Col(ic, s.Cols[ic].Name, types.Bool))
		n = &physical.Select{Child: n, Pred: pred}
	}
	return n
}

// appendFalseCols projects n extra constant-FALSE columns, returning their
// indexes.
func appendFalseCols(n physical.Node, count int) (physical.Node, []int) {
	s := n.Schema()
	var exprs []expr.Expr
	var names []string
	for i, c := range s.Cols {
		exprs = append(exprs, expr.Col(i, c.Name, c.Type))
		names = append(names, c.Name)
	}
	var idxs []int
	for k := 0; k < count; k++ {
		idxs = append(idxs, len(exprs))
		exprs = append(exprs, expr.CBool(false))
		names = append(names, fmt.Sprintf("$false%d", k))
	}
	return &physical.Project{Child: n, Exprs: exprs, Names: names}, idxs
}
