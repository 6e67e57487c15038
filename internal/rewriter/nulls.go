package rewriter

import (
	"fmt"
	"math"

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

func decomposeAgg(t *physical.HashAgg) (physical.Node, ColMap, error) {
	child, cm, err := decompose(t.Child)
	if err != nil {
		return nil, ColMap{}, err
	}
	logical := t.Child.Schema()
	childPhys := child.Schema()
	colE := func(idx int) expr.Expr {
		c := childPhys.Cols[idx]
		return expr.Col(idx, c.Name, c.Type)
	}
	// Pre-projection feeding the physical aggregate.
	var pre []expr.Expr
	var preNames []string
	add := func(e expr.Expr, name string) int {
		pre = append(pre, e)
		preNames = append(preNames, name)
		return len(pre) - 1
	}
	// Group columns: value plus indicator (NULL group keys form their own
	// group because the safe value + indicator pair is uniform).
	var groupCols []int
	outMap := ColMap{}
	for gi, g := range t.GroupCols {
		vi := add(colE(cm.Val[g]), fmt.Sprintf("$gv%d", gi))
		groupCols = append(groupCols, vi)
		outMap.Val = append(outMap.Val, len(groupCols)-1)
		if cm.Ind[g] >= 0 {
			ii := add(colE(cm.Ind[g]), fmt.Sprintf("$gi%d", gi))
			groupCols = append(groupCols, ii)
			outMap.Ind = append(outMap.Ind, len(groupCols)-1)
		} else {
			outMap.Ind = append(outMap.Ind, -1)
		}
	}
	// Aggregates.
	type aggPlan struct {
		outPos  int // position in physical agg output (set later)
		indFrom int // index of the companion non-null-count agg, or -1
		isAvg   bool
		avgSum  int
		avgCnt  int
	}
	var physAggs []exec.AggSpec
	plans := make([]aggPlan, len(t.Aggs))
	// cache of non-null-count aggs per logical column.
	nnCount := map[int]int{}
	addAgg := func(it exec.AggSpec) int {
		physAggs = append(physAggs, it)
		return len(physAggs) - 1
	}
	nonNullCountAgg := func(col int) int {
		if idx, ok := nnCount[col]; ok {
			return idx
		}
		nn := add(colE(cm.Ind[col]), fmt.Sprintf("$nn%d", col))
		idx := addAgg(exec.AggSpec{Fn: exec.AggCountFalse, Col: nn})
		nnCount[col] = idx
		return idx
	}
	maskedVal := func(col int, extreme types.Value) (expr.Expr, error) {
		v := colE(cm.Val[col])
		if cm.Ind[col] < 0 {
			return v, nil
		}
		return expr.TryCall("if", colE(cm.Ind[col]), &expr.Const{Val: extreme}, v)
	}
	for ai, a := range t.Aggs {
		p := &plans[ai]
		p.indFrom = -1
		nullable := a.Col >= 0 && cm.Ind[a.Col] >= 0
		kind := types.KindInvalid
		if a.Col >= 0 {
			kind = logical.Cols[a.Col].Type.Kind
		}
		switch a.Fn {
		case exec.AggCount:
			if a.Col < 0 || !nullable {
				p.outPos = addAgg(exec.AggSpec{Fn: exec.AggCount, Col: -1})
			} else {
				// COUNT(col) over nullable = COUNT_FALSE(ind).
				p.outPos = nonNullCountAgg(a.Col)
			}
		case exec.AggSum:
			mv, err := maskedVal(a.Col, types.SafeValue(kind))
			if err != nil {
				return nil, ColMap{}, err
			}
			ci := add(mv, fmt.Sprintf("$s%d", ai))
			p.outPos = addAgg(exec.AggSpec{Fn: exec.AggSum, Col: ci})
			if nullable {
				p.indFrom = nonNullCountAgg(a.Col)
			}
		case exec.AggMin, exec.AggMax:
			var extreme types.Value
			if nullable {
				switch kind {
				case types.KindInt32:
					extreme = types.NewInt32(extremeI32(a.Fn == exec.AggMin))
				case types.KindInt64:
					extreme = types.NewInt64(extremeI64(a.Fn == exec.AggMin))
				case types.KindFloat64:
					extreme = types.NewFloat64(extremeF64(a.Fn == exec.AggMin))
				case types.KindDate:
					extreme = types.NewDate(extremeI32(a.Fn == exec.AggMin))
				default:
					return nil, ColMap{}, fmt.Errorf("rewriter: %s over nullable %v is not supported", a.Fn, kind)
				}
			}
			mv, err := maskedVal(a.Col, extreme)
			if err != nil {
				return nil, ColMap{}, err
			}
			ci := add(mv, fmt.Sprintf("$m%d", ai))
			p.outPos = addAgg(exec.AggSpec{Fn: a.Fn, Col: ci})
			if nullable {
				p.indFrom = nonNullCountAgg(a.Col)
			}
		case exec.AggAvg:
			if !nullable {
				ci := add(colE(cm.Val[a.Col]), fmt.Sprintf("$a%d", ai))
				p.outPos = addAgg(exec.AggSpec{Fn: exec.AggAvg, Col: ci})
			} else {
				// AVG over nullable = SUM(masked as float) / COUNT(non-null).
				mv, err := maskedVal(a.Col, types.SafeValue(kind))
				if err != nil {
					return nil, ColMap{}, err
				}
				if kind != types.KindFloat64 {
					mv = expr.Promote(mv, types.KindFloat64)
				}
				ci := add(mv, fmt.Sprintf("$a%d", ai))
				p.isAvg = true
				p.avgSum = addAgg(exec.AggSpec{Fn: exec.AggSum, Col: ci})
				p.avgCnt = nonNullCountAgg(a.Col)
				p.indFrom = p.avgCnt
			}
		default:
			return nil, ColMap{}, fmt.Errorf("rewriter: aggregate %v", a.Fn)
		}
	}
	preNode := &physical.Project{Child: child, Exprs: pre, Names: preNames}
	aggNames := make([]string, len(groupCols)+len(physAggs))
	for i := range aggNames {
		aggNames[i] = fmt.Sprintf("$o%d", i)
	}
	aggNode := &physical.HashAgg{Child: preNode, GroupCols: rangeInts(len(groupCols)),
		Aggs: physAggs, Names: aggNames}
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
	for gi := range t.GroupCols {
		vPos := outMap.Val[gi]
		var ind expr.Expr
		if outMap.Ind[gi] >= 0 {
			ind = aggColE(outMap.Ind[gi])
		}
		pushOut(aggColE(vPos), ind, t.Names[gi])
	}
	nGroupOut := len(groupCols)
	for ai := range t.Aggs {
		p := plans[ai]
		name := t.Names[len(t.GroupCols)+ai]
		var ind expr.Expr
		if p.indFrom >= 0 {
			ind = expr.NewCall("=", aggColE(nGroupOut+p.indFrom), expr.CInt(0))
		}
		if p.isAvg {
			sumE := aggColE(nGroupOut + p.avgSum)
			cntE := expr.Promote(aggColE(nGroupOut+p.avgCnt), types.KindFloat64)
			val := expr.NewCall("if",
				expr.NewCall(">", cntE, expr.CFloat(0)),
				expr.NewCall("/", sumE, expr.NewCall("max2", cntE, expr.CFloat(1))),
				expr.CFloat(0))
			pushOut(val, ind, name)
			continue
		}
		pushOut(aggColE(nGroupOut+p.outPos), ind, name)
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

func extremeI32(isMin bool) int32 {
	if isMin {
		return math.MaxInt32
	}
	return math.MinInt32
}

func extremeI64(isMin bool) int64 {
	if isMin {
		return math.MaxInt64
	}
	return math.MinInt64
}

func extremeF64(isMin bool) float64 {
	if isMin {
		return math.Inf(1)
	}
	return math.Inf(-1)
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
