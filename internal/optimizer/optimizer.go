package optimizer

import (
	"vectorwise/internal/expr"
	"vectorwise/internal/plan"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// Optimizer rewrites logical plans.
type Optimizer struct {
	Stats Stats
}

// New builds an optimizer; a nil stats source estimates with defaults.
func New(stats Stats) *Optimizer {
	if stats == nil {
		stats = NoStats{}
	}
	return &Optimizer{Stats: stats}
}

// Optimize runs all passes.
func (o *Optimizer) Optimize(n plan.Node) plan.Node {
	n = foldConstants(n)
	n = o.pushdown(n)
	n = o.reorderJoins(n)
	n = o.simplifyGroupBy(n)
	n = o.pushdown(n) // join reordering can expose new pushdowns
	return o.extractScanRanges(n)
}

// --- constant folding ---

func foldConstants(n plan.Node) plan.Node {
	ch := n.Children()
	newCh := make([]plan.Node, len(ch))
	for i, c := range ch {
		newCh[i] = foldConstants(c)
	}
	n = n.WithChildren(newCh)
	switch t := n.(type) {
	case *plan.Select:
		return &plan.Select{Child: t.Child, Pred: expr.FoldConstants(t.Pred)}
	case *plan.Project:
		exprs := make([]expr.Expr, len(t.Exprs))
		for i, e := range t.Exprs {
			exprs[i] = expr.FoldConstants(e)
		}
		return &plan.Project{Child: t.Child, Exprs: exprs, Names: t.Names}
	case *plan.Join:
		if t.On != nil {
			return &plan.Join{Kind: t.Kind, Left: t.Left, Right: t.Right, On: expr.FoldConstants(t.On)}
		}
	}
	return n
}

// --- predicate pushdown ---

// pushdown moves Select predicates as close to scans as possible.
func (o *Optimizer) pushdown(n plan.Node) plan.Node {
	switch t := n.(type) {
	case *plan.Select:
		child := o.pushdown(t.Child)
		var out plan.Node = child
		for _, pred := range expr.Conjuncts(t.Pred) {
			out = pushPred(out, pred)
		}
		return out
	default:
		ch := n.Children()
		newCh := make([]plan.Node, len(ch))
		for i, c := range ch {
			newCh[i] = o.pushdown(c)
		}
		return n.WithChildren(newCh)
	}
}

// andAll rebuilds a conjunction.
func andAll(preds []expr.Expr) expr.Expr {
	out := preds[0]
	for _, p := range preds[1:] {
		out = expr.NewCall("and", out, p)
	}
	return out
}

// pushPred pushes one conjunct into n as deep as legality allows.
func pushPred(n plan.Node, pred expr.Expr) plan.Node {
	cols := expr.Cols(pred)
	switch t := n.(type) {
	case *plan.Select:
		return &plan.Select{Child: pushPred(t.Child, pred), Pred: t.Pred}
	case *plan.Project:
		// Push through when every referenced projection is a bare column.
		remap := map[int]int{}
		ok := true
		for _, c := range cols {
			if cr, isCol := t.Exprs[c].(*expr.ColRef); isCol {
				remap[c] = cr.Idx
			} else {
				ok = false
				break
			}
		}
		if ok {
			return &plan.Project{Child: pushPred(t.Child, expr.RemapCols(pred, remap)),
				Exprs: t.Exprs, Names: t.Names}
		}
	case *plan.Join:
		nl := t.Left.Schema().Len()
		leftOnly, rightOnly := true, true
		for _, c := range cols {
			if c >= nl {
				leftOnly = false
			} else {
				rightOnly = false
			}
		}
		switch {
		case leftOnly && (t.Kind == plan.JoinInner || t.Kind == plan.JoinCross ||
			t.Kind == plan.JoinLeft || t.Kind == plan.JoinSemi ||
			t.Kind == plan.JoinAnti || t.Kind == plan.JoinAntiNull):
			return &plan.Join{Kind: t.Kind, Left: pushPred(t.Left, pred), Right: t.Right, On: t.On}
		case rightOnly && (t.Kind == plan.JoinInner || t.Kind == plan.JoinCross):
			remap := map[int]int{}
			for _, c := range cols {
				remap[c] = c - nl
			}
			return &plan.Join{Kind: t.Kind, Left: t.Left,
				Right: pushPred(t.Right, expr.RemapCols(pred, remap)), On: t.On}
		case t.Kind == plan.JoinInner || t.Kind == plan.JoinCross:
			// Cross-side predicate: merge into the join condition (turning
			// cross into inner when it gains a condition).
			on := t.On
			if on == nil {
				on = pred
			} else {
				on = expr.NewCall("and", on, pred)
			}
			kind := t.Kind
			if kind == plan.JoinCross {
				kind = plan.JoinInner
			}
			return &plan.Join{Kind: kind, Left: t.Left, Right: t.Right, On: on}
		}
	case *plan.Sort:
		return &plan.Sort{Child: pushPred(t.Child, pred), Keys: t.Keys}
	}
	return &plan.Select{Child: n, Pred: pred}
}

// --- scan-range extraction ---

// extractScanRanges annotates every vectorwise Scan reachable through a
// chain of Selects with the sargable bounds those Selects imply — the
// min/max block-skipping pushdown of the paper's sparse indexes. The
// Selects themselves stay in the plan: skipping prunes whole row groups,
// exact filtering remains the Select operator's job.
func (o *Optimizer) extractScanRanges(n plan.Node) plan.Node {
	ch := n.Children()
	newCh := make([]plan.Node, len(ch))
	for i, c := range ch {
		newCh[i] = o.extractScanRanges(c)
	}
	n = n.WithChildren(newCh)
	sel, ok := n.(*plan.Select)
	if !ok {
		return n
	}
	// Collect every conjunct of the Select chain above the scan.
	var preds []expr.Expr
	cur := plan.Node(sel)
	for {
		s, ok := cur.(*plan.Select)
		if !ok {
			break
		}
		preds = append(preds, expr.Conjuncts(s.Pred)...)
		cur = s.Child
	}
	scan, ok := cur.(*plan.Scan)
	if !ok || scan.Spec.Structure != "vectorwise" {
		return n
	}
	ranges := boundsOf(preds, scan.Spec.Cols)
	if len(ranges) == 0 {
		return n
	}
	// Rebuild the chain over a copy of the scan whose spec carries the
	// (complete, freshly computed) range set. Inner Selects may have
	// annotated a partial set during recursion; this outermost pass wins.
	spec := *scan.Spec
	spec.Ranges = ranges
	spec.Window = o.clusteredWindow(&spec)
	annotated := *scan
	annotated.Spec = &spec
	return rebuildSelectChain(sel, &annotated)
}

// clusteredWindow intersects the clustered group intervals of the scan's
// range columns into one contiguous [Lo, Hi) window annotation, or nil when
// no range column is clustered. The window is a hint for parallelism and
// plan display; the scanner re-derives it at open time against its own
// snapshot (compile-time state must not leak into run-time results).
func (o *Optimizer) clusteredWindow(scan *scanspec.Spec) *scanspec.Window {
	cs, ok := o.Stats.(ClusterStats)
	if !ok {
		return nil
	}
	var w *scanspec.Window
	for _, r := range scan.Ranges {
		name := scan.Cols.Cols[r.Col].Name
		lo, hi, total, ok := cs.ClusteredWindow(scan.Table, name, r.Lo, r.Hi)
		if !ok {
			continue
		}
		if w == nil {
			w = &scanspec.Window{Lo: lo, Hi: hi, Total: total}
			continue
		}
		if lo > w.Lo {
			w.Lo = lo
		}
		if hi < w.Hi {
			w.Hi = hi
		}
	}
	if w != nil && w.Hi < w.Lo {
		w.Hi = w.Lo
	}
	return w
}

func rebuildSelectChain(n plan.Node, leaf plan.Node) plan.Node {
	s, ok := n.(*plan.Select)
	if !ok {
		return leaf
	}
	return &plan.Select{Child: rebuildSelectChain(s.Child, leaf), Pred: s.Pred}
}

// boundsOf intersects the sargable conjuncts into per-column ranges,
// ordered by first appearance.
func boundsOf(preds []expr.Expr, schema *types.Schema) []scanspec.Range {
	byCol := map[int]*scanspec.Range{}
	var order []int
	for _, p := range preds {
		col, lo, hi, ok := sargableBounds(p, schema)
		if !ok {
			continue
		}
		r, seen := byCol[col]
		if !seen {
			r = &scanspec.Range{Col: col}
			byCol[col] = r
			order = append(order, col)
		}
		if lo != nil && (r.Lo == nil || types.Compare(*lo, *r.Lo) > 0) {
			r.Lo = lo
		}
		if hi != nil && (r.Hi == nil || types.Compare(*hi, *r.Hi) < 0) {
			r.Hi = hi
		}
	}
	out := make([]scanspec.Range, 0, len(order))
	for _, c := range order {
		out = append(out, *byCol[c])
	}
	return out
}

// sargableBounds recognizes `col OP const` (either operand order) and
// `col BETWEEN const AND const` as inclusive bounds on a scan column.
// Strict < and > degrade to their inclusive forms — block skipping is
// conservative, the residual Select keeps the result exact.
func sargableBounds(p expr.Expr, schema *types.Schema) (col int, lo, hi *types.Value, ok bool) {
	call, isCall := p.(*expr.Call)
	if !isCall {
		return 0, nil, nil, false
	}
	if call.Fn == "between" && len(call.Args) == 3 {
		cr, okC := call.Args[0].(*expr.ColRef)
		loC, okL := constOperand(call.Args[1])
		hiC, okH := constOperand(call.Args[2])
		if !okC || !okL || !okH || !rangeComparable(schema, cr.Idx, loC.Kind) || !rangeComparable(schema, cr.Idx, hiC.Kind) {
			return 0, nil, nil, false
		}
		return cr.Idx, &loC, &hiC, true
	}
	if len(call.Args) != 2 {
		return 0, nil, nil, false
	}
	op := call.Fn
	cr, okC := call.Args[0].(*expr.ColRef)
	cv, okV := constOperand(call.Args[1])
	if !okC || !okV {
		// Flipped form: const OP col — mirror the operator.
		cr, okC = call.Args[1].(*expr.ColRef)
		cv, okV = constOperand(call.Args[0])
		if !okC || !okV {
			return 0, nil, nil, false
		}
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	if !rangeComparable(schema, cr.Idx, cv.Kind) {
		return 0, nil, nil, false
	}
	switch op {
	case "=":
		return cr.Idx, &cv, &cv, true
	case "<", "<=":
		return cr.Idx, nil, &cv, true
	case ">", ">=":
		return cr.Idx, &cv, nil, true
	}
	return 0, nil, nil, false
}

func constOperand(e expr.Expr) (types.Value, bool) {
	c, ok := e.(*expr.Const)
	if !ok || c.Val.Null {
		return types.Value{}, false
	}
	return c.Val, true
}

// rangeComparable reports whether types.Compare orders the filter constant
// against the column's block summaries meaningfully.
func rangeComparable(schema *types.Schema, col int, constKind types.Kind) bool {
	if col < 0 || col >= schema.Len() {
		return false
	}
	ck := schema.Cols[col].Type.Kind
	if ck == types.KindString {
		return constKind == types.KindString
	}
	ordered := func(k types.Kind) bool { return k.Numeric() || k == types.KindDate }
	return ordered(ck) && ordered(constKind)
}

// --- join reordering ---

// reorderJoins flattens connected inner/cross join trees and rebuilds them
// greedily by estimated cardinality (smallest intermediate result first) —
// the classical heuristic the histogram stats feed.
func (o *Optimizer) reorderJoins(n plan.Node) plan.Node {
	ch := n.Children()
	newCh := make([]plan.Node, len(ch))
	for i, c := range ch {
		newCh[i] = o.reorderJoins(c)
	}
	n = n.WithChildren(newCh)

	j, ok := n.(*plan.Join)
	if !ok || (j.Kind != plan.JoinInner && j.Kind != plan.JoinCross) {
		return n
	}
	rels, preds := flattenJoin(j)
	if len(rels) < 3 {
		return n
	}
	return o.buildGreedy(rels, preds, n.Schema())
}

// relation is one flattened join input with its original column offset.
type relation struct {
	node plan.Node
	off  int // column offset in the original join output
}

// flattenJoin collects inner/cross join inputs and all join predicates
// (expressed in the original combined column space).
func flattenJoin(j *plan.Join) ([]relation, []expr.Expr) {
	var rels []relation
	var preds []expr.Expr
	var rec func(n plan.Node, off int) int
	rec = func(n plan.Node, off int) int {
		if jj, ok := n.(*plan.Join); ok && (jj.Kind == plan.JoinInner || jj.Kind == plan.JoinCross) {
			lw := rec(jj.Left, off)
			rw := rec(jj.Right, off+lw)
			if jj.On != nil {
				// Shift right-side refs? On is in (left++right) local space,
				// which equals global [off, off+lw+rw): shift by off.
				preds = append(preds, expr.ShiftCols(jj.On, off))
			}
			return lw + rw
		}
		rels = append(rels, relation{node: n, off: off})
		return n.Schema().Len()
	}
	rec(j, 0)
	var split []expr.Expr
	for _, p := range preds {
		split = append(split, expr.Conjuncts(p)...)
	}
	return rels, split
}

// buildGreedy assembles a left-deep join tree: start with the smallest
// relation, repeatedly join the relation minimizing the estimated result.
// A final Project restores the original column order.
func (o *Optimizer) buildGreedy(rels []relation, preds []expr.Expr, origSchema *types.Schema) plan.Node {
	type state struct {
		node   plan.Node
		orig   []int // orig global column index per current output column
		joined []bool
	}
	used := make([]bool, len(rels))
	// Estimated base cardinalities.
	card := make([]float64, len(rels))
	for i, r := range rels {
		card[i] = o.estimate(r.node)
	}
	// Start with the smallest relation.
	start := 0
	for i := range rels {
		if card[i] < card[start] {
			start = i
		}
	}
	st := &state{node: rels[start].node, joined: used}
	used[start] = true
	for c := 0; c < rels[start].node.Schema().Len(); c++ {
		st.orig = append(st.orig, rels[start].off+c)
	}
	predUsed := make([]bool, len(preds))
	curCard := card[start]
	for joined := 1; joined < len(rels); joined++ {
		// Pick the unused relation with the cheapest estimated join.
		best, bestCard := -1, 0.0
		for i := range rels {
			if used[i] {
				continue
			}
			sel := o.joinSelectivity(st.orig, rels[i], preds, predUsed)
			est := curCard * card[i] * sel
			if best < 0 || est < bestCard {
				best, bestCard = i, est
			}
		}
		r := rels[best]
		used[best] = true
		// Gather applicable predicates: all columns available after this
		// join.
		avail := map[int]bool{}
		for _, g := range st.orig {
			avail[g] = true
		}
		for c := 0; c < r.node.Schema().Len(); c++ {
			avail[r.off+c] = true
		}
		var onParts []expr.Expr
		for pi, p := range preds {
			if predUsed[pi] {
				continue
			}
			all := true
			for _, g := range expr.Cols(p) {
				if !avail[g] {
					all = false
					break
				}
			}
			if all {
				onParts = append(onParts, p)
				predUsed[pi] = true
			}
		}
		// Remap predicates from global space to (current ++ new) space.
		newOrig := append(append([]int{}, st.orig...), nil...)
		for c := 0; c < r.node.Schema().Len(); c++ {
			newOrig = append(newOrig, r.off+c)
		}
		remap := map[int]int{}
		for local, g := range newOrig {
			remap[g] = local
		}
		kind := plan.JoinCross
		var on expr.Expr
		if len(onParts) > 0 {
			kind = plan.JoinInner
			mapped := make([]expr.Expr, len(onParts))
			for i, p := range onParts {
				mapped[i] = expr.RemapCols(p, remap)
			}
			on = andAll(mapped)
		}
		st.node = &plan.Join{Kind: kind, Left: st.node, Right: r.node, On: on}
		st.orig = newOrig
		curCard = bestCard
	}
	// Restore original column order.
	pos := map[int]int{}
	for local, g := range st.orig {
		pos[g] = local
	}
	var exprs []expr.Expr
	var names []string
	sch := st.node.Schema()
	for g := 0; g < origSchema.Len(); g++ {
		local := pos[g]
		exprs = append(exprs, expr.Col(local, sch.Cols[local].Name, sch.Cols[local].Type))
		names = append(names, origSchema.Cols[g].Name)
	}
	return &plan.Project{Child: st.node, Exprs: exprs, Names: names}
}

// joinSelectivity estimates the combined selectivity of predicates that
// connect the current state to candidate relation r.
func (o *Optimizer) joinSelectivity(curOrig []int, r relation, preds []expr.Expr, predUsed []bool) float64 {
	avail := map[int]bool{}
	for _, g := range curOrig {
		avail[g] = true
	}
	newCols := map[int]bool{}
	for c := 0; c < r.node.Schema().Len(); c++ {
		avail[r.off+c] = true
		newCols[r.off+c] = true
	}
	sel := 1.0
	connected := false
	for pi, p := range preds {
		if predUsed[pi] {
			continue
		}
		touchesNew := false
		all := true
		for _, g := range expr.Cols(p) {
			if newCols[g] {
				touchesNew = true
			}
			if !avail[g] {
				all = false
			}
		}
		if all && touchesNew {
			connected = true
			sel *= predSelectivity(p, nil, "")
		}
	}
	if !connected {
		return 10.0 // penalize Cartesian products
	}
	return sel
}

// --- cardinality estimation ---

// estimate guesses the output row count of a plan.
func (o *Optimizer) estimate(n plan.Node) float64 {
	switch t := n.(type) {
	case *plan.Scan:
		if rows := o.Stats.TableRows(t.Spec.Table); rows >= 0 {
			return float64(rows)
		}
		return defaultTableRows
	case *plan.Select:
		return o.estimate(t.Child) * o.selectivity(t.Child, t.Pred)
	case *plan.Project:
		return o.estimate(t.Child)
	case *plan.Join:
		l, r := o.estimate(t.Left), o.estimate(t.Right)
		switch t.Kind {
		case plan.JoinCross:
			return l * r
		case plan.JoinSemi:
			return l * 0.5
		case plan.JoinAnti, plan.JoinAntiNull:
			return l * 0.5
		case plan.JoinLeft:
			return l
		default:
			sel := 1.0
			if t.On != nil {
				for _, p := range expr.Conjuncts(t.On) {
					sel *= predSelectivity(p, nil, "")
				}
			}
			return l * r * sel
		}
	case *plan.Aggregate:
		if len(t.GroupCols) == 0 {
			return 1
		}
		return o.estimate(t.Child) / 10
	case *plan.Sort:
		return o.estimate(t.Child)
	case *plan.Limit:
		e := o.estimate(t.Child)
		if t.N >= 0 && float64(t.N) < e {
			return float64(t.N)
		}
		return e
	case *plan.Values:
		return float64(len(t.Rows))
	}
	return defaultTableRows
}

// selectivity estimates a predicate over a child plan, using histograms
// when the predicate compares a scan column to a constant.
func (o *Optimizer) selectivity(child plan.Node, pred expr.Expr) float64 {
	sel := 1.0
	for _, p := range expr.Conjuncts(pred) {
		st, _ := o.columnStatsFor(child, p)
		table := ""
		sel *= predSelectivity(p, st, table)
	}
	return sel
}

// columnStatsFor digs out stats when pred is `col OP const` directly over a
// scan (possibly through column-only projections/selects).
func (o *Optimizer) columnStatsFor(child plan.Node, pred expr.Expr) (*ColStats, string) {
	call, ok := pred.(*expr.Call)
	if !ok || len(call.Args) != 2 {
		return nil, ""
	}
	colRef, ok := call.Args[0].(*expr.ColRef)
	if !ok {
		return nil, ""
	}
	// Walk down through transparent nodes to the scan.
	idx := colRef.Idx
	n := child
	for {
		switch t := n.(type) {
		case *plan.Select:
			n = t.Child
		case *plan.Project:
			cr, ok := t.Exprs[idx].(*expr.ColRef)
			if !ok {
				return nil, ""
			}
			idx = cr.Idx
			n = t.Child
		case *plan.Scan:
			table, name := t.Spec.Table, t.Schema().Cols[idx].Name
			if st := o.Stats.Column(table, name); st != nil {
				return st, table
			}
			// No histogram (ANALYZE has not run): fall back to the block
			// summaries the column store keeps anyway.
			if ss, ok := o.Stats.(SummaryStats); ok {
				if lo, hi, ok := ss.ColumnBounds(table, name); ok {
					return SummaryColStats(lo, hi), table
				}
			}
			return nil, table
		default:
			return nil, ""
		}
	}
}

// predSelectivity estimates one conjunct.
func predSelectivity(p expr.Expr, st *ColStats, _ string) float64 {
	call, ok := p.(*expr.Call)
	if !ok {
		return 0.5
	}
	constRHS := func() (types.Value, bool) {
		if len(call.Args) != 2 {
			return types.Value{}, false
		}
		c, ok := call.Args[1].(*expr.Const)
		if !ok {
			return types.Value{}, false
		}
		return c.Val, true
	}
	switch call.Fn {
	case "=":
		if st != nil {
			return st.SelEq()
		}
		return defaultEqSel
	case "<>":
		return defaultNeSel
	case "<", "<=":
		if v, ok := constRHS(); ok && st != nil {
			return st.SelLE(v)
		}
		return defaultRangeSel
	case ">", ">=":
		if v, ok := constRHS(); ok && st != nil {
			return 1 - st.SelLE(v)
		}
		return defaultRangeSel
	case "between":
		if st != nil {
			if lo, ok := call.Args[1].(*expr.Const); ok {
				if hi, ok2 := call.Args[2].(*expr.Const); ok2 {
					s := st.SelLE(hi.Val) - st.SelLE(lo.Val)
					if s < 0 {
						s = 0
					}
					return s
				}
			}
		}
		return defaultRangeSel / 2
	case "like", "starts_with", "contains", "ends_with":
		return defaultLikeSel
	case "and":
		return predSelectivity(call.Args[0], st, "") * predSelectivity(call.Args[1], st, "")
	case "or":
		a := predSelectivity(call.Args[0], st, "")
		b := predSelectivity(call.Args[1], st, "")
		return a + b - a*b
	case "not":
		return 1 - predSelectivity(call.Args[0], st, "")
	}
	return 0.5
}

// --- FD-based group-by simplification ---

// simplifyGroupBy drops functionally dependent group columns: grouping on a
// table's enforced primary key determines every other column of that table,
// so the extra keys become cheap MAX aggregates instead of widening the hash
// key. (The paper: "functional dependency tracking ... also benefit Ingres
// 10".)
func (o *Optimizer) simplifyGroupBy(n plan.Node) plan.Node {
	ch := n.Children()
	newCh := make([]plan.Node, len(ch))
	for i, c := range ch {
		newCh[i] = o.simplifyGroupBy(c)
	}
	n = n.WithChildren(newCh)
	agg, ok := n.(*plan.Aggregate)
	if !ok || len(agg.GroupCols) < 2 {
		return n
	}
	keyCols := keyColumns(agg.Child)
	if keyCols == nil {
		return n
	}
	hasKey := false
	for _, g := range agg.GroupCols {
		hasKey = hasKey || keyCols[g]
	}
	if !hasKey {
		return n
	}
	// Keep key group columns; demote others to max() aggregates, then
	// restore the original output order with a projection.
	var newGroups []int
	type moved struct {
		outPos int // original output position
		aggIdx int // index into new aggregate list
	}
	var movedCols []moved
	var newAggs []plan.AggItem
	keptOut := map[int]int{} // original output pos → new group pos
	for i, g := range agg.GroupCols {
		if keyCols[g] {
			keptOut[i] = len(newGroups)
			newGroups = append(newGroups, g)
		} else {
			movedCols = append(movedCols, moved{outPos: i, aggIdx: len(newAggs)})
			newAggs = append(newAggs, plan.AggItem{Fn: "max", Col: g})
		}
	}
	nMoved := len(newAggs)
	newAggs = append(newAggs, agg.Aggs...)
	names := make([]string, 0, len(newGroups)+len(newAggs))
	for range newGroups {
		names = append(names, "")
	}
	for range newAggs {
		names = append(names, "")
	}
	for i := range names {
		names[i] = agg.Names[0] // placeholder, fixed below
	}
	newAgg := &plan.Aggregate{Child: agg.Child, GroupCols: newGroups, Aggs: newAggs, Names: names}
	// Rebuild names per new layout (group names then agg names).
	nn := make([]string, 0, len(names))
	for i, g := range agg.GroupCols {
		_ = g
		if _, kept := keptOut[i]; kept {
			nn = append(nn, agg.Names[i])
		}
	}
	for _, m := range movedCols {
		nn = append(nn, agg.Names[m.outPos])
	}
	nn = append(nn, agg.Names[len(agg.GroupCols):]...)
	newAgg.Names = nn
	// Projection restoring original column order.
	outSchema := newAgg.Schema()
	var exprs []expr.Expr
	var outNames []string
	for i := range agg.GroupCols {
		if np, kept := keptOut[i]; kept {
			c := outSchema.Cols[np]
			exprs = append(exprs, expr.Col(np, c.Name, c.Type))
		} else {
			for _, m := range movedCols {
				if m.outPos == i {
					np := len(newGroups) + m.aggIdx
					c := outSchema.Cols[np]
					exprs = append(exprs, expr.Col(np, c.Name, c.Type))
				}
			}
		}
		outNames = append(outNames, agg.Names[i])
	}
	for i := range agg.Aggs {
		np := len(newGroups) + nMoved + i
		c := outSchema.Cols[np]
		exprs = append(exprs, expr.Col(np, c.Name, c.Type))
		outNames = append(outNames, agg.Names[len(agg.GroupCols)+i])
	}
	return &plan.Project{Child: newAgg, Exprs: exprs, Names: outNames}
}

// keyColumns returns the set of child output columns that carry a unique
// key, or nil when unknown. Tracks keys through Select and column-only
// Project over a keyed Scan. Only a heap table enforces its PRIMARY KEY; a
// vectorwise table may hold duplicates, so its key proves nothing.
func keyColumns(n plan.Node) map[int]bool {
	switch t := n.(type) {
	case *plan.Scan:
		if t.Key < 0 || t.Spec.Structure != "heap" {
			return nil
		}
		return map[int]bool{t.Key: true}
	case *plan.Select:
		return keyColumns(t.Child)
	case *plan.Project:
		below := keyColumns(t.Child)
		if below == nil {
			return nil
		}
		out := map[int]bool{}
		for i, e := range t.Exprs {
			if cr, ok := e.(*expr.ColRef); ok && below[cr.Idx] {
				out[i] = true
			}
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
	return nil
}

// EstimateRows exposes cardinality estimation (EXPLAIN, the parallelizer's
// fragment sizing).
func (o *Optimizer) EstimateRows(n plan.Node) float64 { return o.estimate(n) }
