package optimizer

import (
	"vectorwise/internal/expr"
	"vectorwise/internal/plan"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// --- column pruning (projection pushdown) ---

// pruneColumns narrows every Scan to the columns the query reads — the
// first argument for a column store. It runs last in Optimize, after range
// extraction, so no later pass resolves a position against a table's full
// schema. One recursion does both directions: going down it accumulates the
// set of a node's output columns its ancestors read; coming back up each
// node is rebuilt over its narrowed children with every positional
// reference (ColRefs, join conditions, group/aggregate/sort columns, scan
// ranges and keys) rewritten through the child's old→new position map. The
// root needs all of its columns, so the plan's output schema is unchanged.
func pruneColumns(n plan.Node) plan.Node {
	out, _ := prune(n, allColumns(n))
	return out
}

// allColumns is the need set that asks for every output column of n.
func allColumns(n plan.Node) []bool {
	need := make([]bool, n.Schema().Len())
	for i := range need {
		need[i] = true
	}
	return need
}

// prune rebuilds n to produce at least the columns in need (one flag per
// output column of n) and returns the rebuilt node with the map from n's
// output positions to the new node's (-1 for a dropped column). The result
// may carry columns beyond need — a Select passes its predicate's columns
// through — but a full need always yields the identity map. No node is ever
// narrowed to zero columns: batches carry their row count in their vectors.
func prune(n plan.Node, need []bool) (plan.Node, []int) {
	switch t := n.(type) {
	case *plan.Scan:
		return pruneScan(t, need)

	case *plan.Select:
		childNeed := append([]bool(nil), need...)
		addCols(childNeed, t.Pred)
		child, m := prune(t.Child, childNeed)
		return &plan.Select{Child: child, Pred: expr.MapCols(t.Pred, m)}, m

	case *plan.Project:
		keep := need
		if !anySet(keep) && len(keep) > 0 {
			// Unread, but keep one: only the binder's own empty projection
			// (under COUNT(*)) is a zero-width node the kernel is known to run.
			keep = make([]bool, len(need))
			keep[0] = true
		}
		childNeed := make([]bool, t.Child.Schema().Len())
		for i, e := range t.Exprs {
			if keep[i] {
				addCols(childNeed, e)
			}
		}
		child, cm := prune(t.Child, childNeed)
		out := &plan.Project{Child: child}
		m := make([]int, len(t.Exprs))
		for i, e := range t.Exprs {
			if !keep[i] {
				m[i] = -1
				continue
			}
			m[i] = len(out.Exprs)
			out.Exprs = append(out.Exprs, expr.MapCols(e, cm))
			out.Names = append(out.Names, t.Names[i])
		}
		return out, m

	case *plan.Join:
		return pruneJoin(t, need)

	case *plan.Aggregate:
		// Every output stays (group columns define the groups; dropping an
		// unread aggregate is not worth a second remapping); the child needs
		// exactly the grouped and aggregated columns — none for COUNT(*).
		childNeed := make([]bool, t.Child.Schema().Len())
		for _, g := range t.GroupCols {
			childNeed[g] = true
		}
		for _, a := range t.Aggs {
			if a.Col >= 0 {
				childNeed[a.Col] = true
			}
		}
		child, cm := prune(t.Child, childNeed)
		out := &plan.Aggregate{Child: child, Names: t.Names,
			GroupCols: make([]int, len(t.GroupCols)), Aggs: make([]plan.AggItem, len(t.Aggs))}
		for i, g := range t.GroupCols {
			out.GroupCols[i] = cm[g]
		}
		for i, a := range t.Aggs {
			if a.Col >= 0 {
				a.Col = cm[a.Col]
			}
			out.Aggs[i] = a
		}
		return out, identityMap(len(need))

	case *plan.Sort:
		childNeed := append([]bool(nil), need...)
		for _, k := range t.Keys {
			childNeed[k.Col] = true
		}
		child, m := prune(t.Child, childNeed)
		keys := make([]plan.SortKey, len(t.Keys))
		for i, k := range t.Keys {
			keys[i] = plan.SortKey{Col: m[k.Col], Desc: k.Desc}
		}
		return &plan.Sort{Child: child, Keys: keys}, m

	case *plan.Limit:
		child, m := prune(t.Child, need)
		return &plan.Limit{Child: child, Offset: t.Offset, N: t.N}, m

	case *plan.Values:
		return t, identityMap(len(need))
	}
	// A node kind this pass does not know may read any column of any child:
	// require them all (which keeps every child's positions, so the node
	// itself needs no rewriting) and keep pruning below.
	ch := n.Children()
	newCh := make([]plan.Node, len(ch))
	for i, c := range ch {
		newCh[i], _ = prune(c, allColumns(c))
	}
	return n.WithChildren(newCh), identityMap(len(need))
}

// pruneScan narrows a scan's spec to the needed columns plus the columns its
// own ranges restrict. A scan nothing reads from (COUNT(*), EXISTS) keeps
// one column, the cheapest to decode, so row counts still flow. The position
// column of a RID scan is not stored, so it is never dropped and never the
// one column kept: it stays last, after whatever Cols narrows to.
func pruneScan(t *plan.Scan, need []bool) (plan.Node, []int) {
	stored := t.Spec.Cols.Len()
	need = append([]bool(nil), need...)
	for _, r := range t.Spec.Ranges {
		need[r.Col] = true
	}
	if !anySet(need[:stored]) {
		need[cheapestColumn(t.Spec.Cols)] = true
	}
	m := make([]int, len(need))
	cols := &types.Schema{}
	for i, c := range t.Spec.Cols.Cols {
		if !need[i] {
			m[i] = -1
			continue
		}
		m[i] = len(cols.Cols)
		cols.Cols = append(cols.Cols, c)
	}
	if t.Spec.RID {
		m[stored] = cols.Len()
	}
	if cols.Len() == stored {
		return t, m
	}
	spec := *t.Spec
	spec.Cols = cols
	spec.Ranges = make([]scanspec.Range, len(t.Spec.Ranges))
	for i, r := range t.Spec.Ranges {
		r.Col = m[r.Col]
		spec.Ranges[i] = r
	}
	out := &plan.Scan{Spec: &spec, Alias: t.Alias, Key: -1}
	if t.Key >= 0 {
		out.Key = m[t.Key]
	}
	return out, m
}

// cheapestColumn picks the column a scan keeps when nothing is read from it:
// the narrowest kind (BOOL < INTEGER/DATE < BIGINT/DOUBLE < VARCHAR), NOT
// NULL before NULLable (a NULLable column drags its indicator along), lowest
// position on ties. Chosen from the schema alone so EXPLAIN is deterministic.
func cheapestColumn(s *types.Schema) int {
	best := 0
	for i, c := range s.Cols {
		b := s.Cols[best].Type
		if w, bw := c.Type.Kind.Width(), b.Kind.Width(); w < bw ||
			(w == bw && !c.Type.Nullable && b.Nullable) {
			best = i
		}
	}
	return best
}

// pruneJoin splits need (and the condition's columns) between the two
// inputs and rebuilds the condition over their narrowed concatenation.
func pruneJoin(t *plan.Join, need []bool) (plan.Node, []int) {
	nl, nr := t.Left.Schema().Len(), t.Right.Schema().Len()
	both := make([]bool, nl+nr)
	copy(both, need) // semi/anti joins expose (and are asked for) left columns only
	if t.On != nil {
		addCols(both, t.On)
	}
	left, lm := prune(t.Left, both[:nl])
	right, rm := prune(t.Right, both[nl:])
	m := make([]int, nl+nr)
	copy(m, lm)
	nlNew := left.Schema().Len()
	for j, p := range rm {
		if p >= 0 {
			p += nlNew
		}
		m[nl+j] = p
	}
	out := &plan.Join{Kind: t.Kind, Left: left, Right: right}
	if t.On != nil {
		out.On = expr.MapCols(t.On, m)
	}
	return out, m[:len(need)]
}

func anySet(set []bool) bool {
	for _, on := range set {
		if on {
			return true
		}
	}
	return false
}

// addCols marks the columns e references.
func addCols(set []bool, e expr.Expr) {
	for _, c := range expr.Cols(e) {
		set[c] = true
	}
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}
