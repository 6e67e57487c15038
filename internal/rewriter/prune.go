package rewriter

import (
	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/physical"
	"vectorwise/internal/types"
)

// Column pruning (projection pushdown) — the first argument for a column
// store, and the plan's only pruning pass. It runs after NULL decomposition
// because only there is every NULLable column two columns, a value and a
// BOOLEAN indicator, and some plans read only the indicator: COUNT(col)
// counts false indicators, `col IS NULL` tests one. Whatever no operator
// reads is dropped from its scan's physical list, so the scan neither
// fetches nor decodes it; up to here every spec lists its table's full
// logical schema.
//
// One recursion does both directions: going down it accumulates the set of
// a node's output columns its ancestors read; coming back up each node is
// rebuilt over its narrowed children with every positional reference
// rewritten through the child's old→new position map. Scans, Projects and
// joins narrow; every other node keeps all its outputs. On the way up the
// plan also loses the operators that compute nothing: a Project nothing
// reads, or one that only passes all of its child's columns through, gives
// way to its child (the map sends each reference to the column it names),
// and a Select over a Select becomes one Select whose conjunction runs the
// upper predicate on the lower one's survivors, as the two did. The root
// needs all of its columns, and its spine keeps its layout and names: the
// Selects, Sorts, TopNs and Limits, and the inputs a join emits, down to the
// first Project, which stays. So the plan's output schema (and its ColMap)
// is unchanged. The children of a node kind the pass does not know keep
// their layout the same way. Running the pass on its own output changes
// nothing.

// pruneDecomposed narrows a decomposed plan, its scans included, to the
// columns read.
func pruneDecomposed(n physical.Node) physical.Node {
	out, _ := pruneNode(n, allOf(n), true)
	return out
}

// allOf is the need set that asks for every output column of n.
func allOf(n physical.Node) []bool {
	need := make([]bool, n.Schema().Len())
	for i := range need {
		need[i] = true
	}
	return need
}

// pruneNode rebuilds n to produce at least the columns in need and returns
// the rebuilt node with the map from n's output positions to the new node's
// (-1 for a dropped column). With keep, n is on a spine: its layout stays
// as it is.
func pruneNode(n physical.Node, need []bool, keep bool) (physical.Node, []int) {
	switch t := n.(type) {
	case *physical.Scan:
		return pruneScanOut(t, need)

	case *physical.Select:
		childNeed := append([]bool(nil), need...)
		markCols(childNeed, t.Pred)
		child, m := pruneNode(t.Child, childNeed, keep)
		pred := expr.MapCols(t.Pred, m)
		if s, ok := child.(*physical.Select); ok {
			return &physical.Select{Child: s.Child, Pred: expr.And(s.Pred, pred)}, m
		}
		return &physical.Select{Child: child, Pred: pred}, m

	case *physical.Project:
		childNeed := make([]bool, t.Child.Schema().Len())
		for i, e := range t.Exprs {
			if need[i] {
				markCols(childNeed, e)
			}
		}
		child, cm := pruneNode(t.Child, childNeed, false)
		out := &physical.Project{Child: child,
			Exprs: make([]expr.Expr, 0, len(t.Exprs)), Names: make([]string, 0, len(t.Exprs))}
		m := make([]int, len(t.Exprs))
		for i, e := range t.Exprs {
			m[i] = -1
			if need[i] {
				m[i] = len(out.Exprs)
				out.Exprs = append(out.Exprs, expr.MapCols(e, cm))
				out.Names = append(out.Names, t.Names[i])
			}
		}
		if keep || (len(out.Exprs) > 0 && !out.PassesThrough()) {
			return out, m
		}
		for i, p := range m {
			if p >= 0 {
				m[i] = out.Exprs[p].(*expr.ColRef).Idx
			}
		}
		return child, m

	case *physical.HashAgg:
		childNeed := make([]bool, t.Child.Schema().Len())
		for _, g := range t.GroupCols {
			childNeed[g] = true
		}
		for _, a := range t.Aggs {
			if a.Col >= 0 {
				childNeed[a.Col] = true
			}
			if c := a.IndCol(); c >= 0 {
				childNeed[c] = true
			}
		}
		child, m := pruneNode(t.Child, childNeed, false)
		out := &physical.HashAgg{Child: child, Names: t.Names,
			GroupCols: remapInts(t.GroupCols, m), Aggs: make([]exec.AggSpec, len(t.Aggs))}
		for i, a := range t.Aggs {
			if a.Col >= 0 {
				a.Col = m[a.Col]
			}
			if c := a.IndCol(); c >= 0 {
				a = a.WithInd(m[c])
			}
			out.Aggs[i] = a
		}
		return out, identity(len(need))

	case *physical.HashJoin:
		return pruneHashJoin(t, need, keep)

	case *physical.Sort:
		child, keys, m := pruneSorted(t.Child, t.Keys, need, keep)
		return &physical.Sort{Child: child, Keys: keys}, m

	case *physical.TopN:
		child, keys, m := pruneSorted(t.Child, t.Keys, need, keep)
		return &physical.TopN{Child: child, Keys: keys, N: t.N}, m

	case *physical.Limit:
		child, m := pruneNode(t.Child, need, keep)
		return &physical.Limit{Child: child, Offset: t.Offset, N: t.N}, m
	}
	// Values and any other node keep their children whole, which
	// keeps every child's positions.
	ch := n.Children()
	newCh := make([]physical.Node, len(ch))
	for i, c := range ch {
		newCh[i], _ = pruneNode(c, allOf(c), true)
	}
	return n.WithChildren(newCh), identity(len(need))
}

// pruneScanOut drops the unread columns of a scan's physical list. Range
// columns stay (the scanner filters on them), so does the position column of
// a RID scan, which is made, not stored. A scan nothing reads from
// (COUNT(*), DELETE without WHERE) keeps one value column, the cheapest, so
// row counts still flow; never the position column. Columns are found by
// name, so a scan pruned before is left as it is.
func pruneScanOut(t *physical.Scan, need []bool) (physical.Node, []int) {
	need = append([]bool(nil), need...)
	stored := len(need)
	if t.Spec.RID {
		stored--
		need[stored] = true
	}
	for _, r := range t.Spec.Ranges {
		need[t.Out.Find(t.Spec.Cols.Cols[r.Col].Name)] = true
	}
	if !anyOf(need[:stored]) {
		need[t.Out.Find(t.Spec.Cols.Cols[cheapestColumn(t.Spec.Cols)].Name)] = true
	}
	out := *t
	out.Out = out.Out.Clone()
	out.Out.Cols = out.Out.Cols[:0]
	m := make([]int, len(need))
	for i, c := range t.Out.Cols {
		m[i] = -1
		if need[i] {
			m[i] = len(out.Out.Cols)
			out.Out.Cols = append(out.Out.Cols, c)
		}
	}
	if out.Out.Len() == t.Out.Len() {
		return t, m
	}
	return &out, m
}

// cheapestColumn picks the column a scan keeps when nothing is read from it:
// the narrowest kind (BOOL < INTEGER/DATE < BIGINT/DOUBLE < VARCHAR), then
// NOT NULL before NULLable, then the lowest position. Chosen from the
// logical schema alone so EXPLAIN is deterministic.
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

// pruneHashJoin splits need and the join's key and NULL-key columns between
// the inputs and rebuilds the join over their narrowed outputs.
func pruneHashJoin(t *physical.HashJoin, need []bool, keep bool) (physical.Node, []int) {
	nl, nr := t.Left.Schema().Len(), t.Right.Schema().Len()
	emitsRight := t.Type == exec.Inner || t.Type == exec.LeftOuter
	ln, rn := make([]bool, nl), make([]bool, nr)
	copy(ln, need)
	if emitsRight {
		copy(rn, need[nl:])
	}
	for _, k := range t.LeftKeys {
		ln[k] = true
	}
	for _, k := range t.RightKeys {
		rn[k] = true
	}
	if t.LeftKeyNull >= 0 {
		ln[t.LeftKeyNull] = true
	}
	if t.RightKeyNull >= 0 {
		rn[t.RightKeyNull] = true
	}
	left, lm := pruneNode(t.Left, ln, keep)
	right, rm := pruneNode(t.Right, rn, keep && emitsRight)
	out := *t
	out.Left, out.Right = left, right
	out.LeftKeys, out.RightKeys = remapInts(t.LeftKeys, lm), remapInts(t.RightKeys, rm)
	if t.LeftKeyNull >= 0 {
		out.LeftKeyNull = lm[t.LeftKeyNull]
	}
	if t.RightKeyNull >= 0 {
		out.RightKeyNull = rm[t.RightKeyNull]
	}
	m := append(make([]int, 0, len(need)), lm...)
	if emitsRight {
		nlNew := left.Schema().Len()
		for _, p := range rm {
			if p >= 0 {
				p += nlNew
			}
			m = append(m, p)
		}
		if t.Type == exec.LeftOuter && t.WithMatch {
			m = append(m, nlNew+right.Schema().Len()) // the trailing $match
		}
	}
	return &out, m
}

func anyOf(set []bool) bool {
	for _, on := range set {
		if on {
			return true
		}
	}
	return false
}

// markCols marks the columns e references.
func markCols(set []bool, e expr.Expr) {
	for _, c := range expr.Cols(e) {
		set[c] = true
	}
}

func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func remapInts(cols []int, m []int) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = m[c]
	}
	return out
}

// pruneSorted prunes the child of a Sort or TopN, which also reads the
// keys, and remaps the keys.
func pruneSorted(child physical.Node, keys []exec.SortKey, need []bool, keep bool) (physical.Node, []exec.SortKey, []int) {
	childNeed := append([]bool(nil), need...)
	for _, k := range keys {
		childNeed[k.Col] = true
	}
	child, m := pruneNode(child, childNeed, keep)
	out := make([]exec.SortKey, len(keys))
	for i, k := range keys {
		out[i] = exec.SortKey{Col: m[k.Col], Desc: k.Desc}
	}
	return child, out, m
}
