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
		b := newSplitProject(len(t.Exprs))
		for i, e := range t.Exprs {
			val, ind, err := expr.SplitNulls(e, cm.Val, cm.Ind)
			if err != nil {
				return nil, ColMap{}, err
			}
			b.add(t.Names[i], val, ind)
		}
		out, outMap := b.over(child)
		return out, outMap, nil

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

// splitProject builds a decomposed projection in the layout every node
// keeps: the values in logical order, then the indicators of the NULLable
// ones in the same order.
type splitProject struct {
	exprs, inds     []expr.Expr
	names, indNames []string
	cm              ColMap // Ind counts from the first indicator until over
}

// newSplitProject sizes a projection of n logical columns, so that neither
// the values nor the indicators that follow them grow it.
func newSplitProject(n int) *splitProject {
	cols := make([]int, 2*n)
	return &splitProject{exprs: make([]expr.Expr, 0, 2*n), names: make([]string, 0, 2*n),
		cm: ColMap{Val: cols[:0:n], Ind: cols[n:n]}}
}

// add appends a logical column; a nil or constant-FALSE indicator means it
// is never NULL.
func (b *splitProject) add(name string, val, ind expr.Expr) {
	b.cm.Val = append(b.cm.Val, len(b.exprs))
	b.exprs, b.names = append(b.exprs, val), append(b.names, name)
	if ind == nil || expr.IsFalse(ind) {
		b.cm.Ind = append(b.cm.Ind, -1)
		return
	}
	b.cm.Ind = append(b.cm.Ind, len(b.inds))
	b.inds, b.indNames = append(b.inds, ind), append(b.indNames, name+"$null")
}

// over returns the projection over child and its ColMap.
func (b *splitProject) over(child physical.Node) (*physical.Project, ColMap) {
	for i, p := range b.cm.Ind {
		if p >= 0 {
			b.cm.Ind[i] = len(b.exprs) + p
		}
	}
	return &physical.Project{Child: child, Exprs: append(b.exprs, b.inds...),
		Names: append(b.names, b.indNames...)}, b.cm
}

// decomposeAgg aggregates the decomposed child's columns directly. A
// NULLable group column groups by its value and its indicator, so NULL
// keys form one group of their own. An aggregate over a NULLable column
// reads the value column and skips the rows its indicator marks; its result
// is NULL where its group has no non-NULL row, which one COUNT per such
// column, shared by its aggregates, tells. Without group columns the one
// group exists over an empty input too, so there every aggregate but COUNT
// is NULL where the COUNT of the rows it reads is 0.
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
	counts := map[int]int{} // indicator column (-1: none) → the count of rows it lets through
	countOf := func(ind int) int {
		idx, ok := counts[ind]
		if !ok {
			idx = len(aggs)
			aggs = append(aggs, exec.AggSpec{Fn: exec.AggCount, Col: -1}.WithInd(ind))
			counts[ind] = idx
		}
		return idx
	}
	outPos := make([]int, len(t.Aggs))
	nullFrom := make([]int, len(t.Aggs)) // the count deciding NULL, or -1
	for ai, a := range t.Aggs {
		ind := -1 // the input's indicator
		if a.Col >= 0 {
			ind = cm.Ind[a.Col]
		}
		nullFrom[ai] = -1
		if a.Fn == exec.AggCount {
			outPos[ai] = countOf(ind)
			continue
		}
		outPos[ai] = len(aggs)
		aggs = append(aggs, exec.AggSpec{Fn: a.Fn, Col: cm.Val[a.Col]}.WithInd(ind))
		if ind >= 0 || len(groupCols) == 0 {
			nullFrom[ai] = countOf(ind)
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
	// Post-projection: group outputs in logical order, then aggregates.
	b := newSplitProject(len(t.Names))
	for i := range t.GroupCols {
		var ind expr.Expr
		if keys.Ind[i] >= 0 {
			ind = aggColE(keys.Ind[i])
		}
		b.add(t.Names[i], aggColE(keys.Val[i]), ind)
	}
	for ai := range t.Aggs {
		var ind expr.Expr
		if nullFrom[ai] >= 0 {
			ind = expr.NewCall("=", aggColE(len(groupCols)+nullFrom[ai]), expr.CInt(0))
		}
		b.add(t.Names[len(t.GroupCols)+ai], aggColE(len(groupCols)+outPos[ai]), ind)
	}
	out, outMap := b.over(aggNode)
	return out, outMap, nil
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
		b := newSplitProject(len(lcm.Val) + len(rcm.Val))
		for i := range lcm.Val { // left columns pass through
			var ind expr.Expr
			if lcm.Ind[i] >= 0 {
				ind = jcolE(lcm.Ind[i])
			}
			b.add(fmt.Sprintf("l%d", i), jcolE(lcm.Val[i]), ind)
		}
		nlPhys := left.Schema().Len()
		for j := range rcm.Val { // right columns: own indicator OR NOT matched
			var ind expr.Expr = notMatch
			if rcm.Ind[j] >= 0 {
				ind = expr.NewCall("or", jcolE(nlPhys+rcm.Ind[j]), notMatch)
			}
			b.add(fmt.Sprintf("r%d", j), jcolE(nlPhys+rcm.Val[j]), ind)
		}
		out, cm := b.over(hj)
		return out, cm, nil
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
