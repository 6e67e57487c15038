package plan

import (
	"fmt"
	"slices"

	"vectorwise/internal/expr"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/sql"
	"vectorwise/internal/types"
)

// Catalog resolves table names for the binder.
type Catalog interface {
	// ResolveTable returns metadata for a table.
	ResolveTable(name string) (*TableMeta, error)
}

// TableMeta describes a catalog table.
type TableMeta struct {
	Name      string
	Schema    *types.Schema // logical schema (nullability included)
	Structure string        // "vectorwise" or "heap"
	Key       int           // primary key column index, -1 if none
}

// Binder turns SQL ASTs into logical plans.
type Binder struct {
	Cat Catalog
	// EvalScalarSub executes an uncorrelated scalar subquery and returns
	// its single value; wired up by the engine (which owns execution).
	EvalScalarSub func(*sql.SelectStmt) (types.Value, error)
}

// scopeCol is one visible column during name resolution.
type scopeCol struct {
	qual string
	name string
	idx  int
	typ  types.T
}

type scope struct {
	cols []scopeCol
}

func scopeOf(qual string, s *types.Schema, base int) *scope {
	sc := &scope{}
	for i, c := range s.Cols {
		sc.cols = append(sc.cols, scopeCol{qual: qual, name: c.Name, idx: base + i, typ: c.Type})
	}
	return sc
}

func (sc *scope) merge(other *scope) *scope {
	out := &scope{}
	out.cols = append(out.cols, sc.cols...)
	out.cols = append(out.cols, other.cols...)
	return out
}

func (sc *scope) resolve(qual, name string) (*expr.ColRef, error) {
	var found *scopeCol
	for i := range sc.cols {
		c := &sc.cols[i]
		if c.name != name {
			continue
		}
		if qual != "" && c.qual != qual {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("plan: column %q is ambiguous", name)
		}
		found = c
	}
	if found == nil {
		if qual != "" {
			return nil, fmt.Errorf("plan: no column %s.%s", qual, name)
		}
		return nil, fmt.Errorf("plan: no column %q", name)
	}
	return expr.Col(found.idx, found.name, found.typ), nil
}

// leafHook gets first shot at AST nodes during expression binding; used to
// route group-by expressions and aggregate calls to aggregate outputs.
type leafHook func(n sql.ExprNode) (expr.Expr, bool, error)

// BindExprNoCols binds an expression with no columns in scope (literal
// rows, DEFAULT-style expressions).
func (b *Binder) BindExprNoCols(n sql.ExprNode) (expr.Expr, error) {
	return b.bindExpr(&scope{}, n, nil)
}

// BindMatch binds the row search of an UPDATE or DELETE as a plan: a
// RID-projecting scan of the table, a Select for the WHERE, and a projection
// that emits, per matched row, its row id, the old values of the columns it
// keeps — every column, in table order, when keepAll is set, else the SET
// targets — and then the new value of each SET target, named $set_<column>.
// It returns the SET targets in the order their values appear. The row-id
// column never enters the scope, so neither WHERE nor SET can name it.
func (b *Binder) BindMatch(meta *TableMeta, where sql.ExprNode, set []sql.SetClause, keepAll bool) (Node, []int, error) {
	spec := &scanspec.Spec{Table: meta.Name, Structure: meta.Structure,
		Cols: meta.Schema.Clone(), RID: true}
	sc := scopeOf(meta.Name, spec.Cols, 0)
	var root Node = &Scan{Spec: spec, Alias: meta.Name, Key: meta.Key}
	if where != nil {
		pred, err := b.bindExpr(sc, where, nil)
		if err != nil {
			return nil, nil, err
		}
		if pred.Type().Kind != types.KindBool {
			return nil, nil, fmt.Errorf("plan: WHERE must be boolean, got %v", pred.Type())
		}
		root = &Select{Child: root, Pred: pred}
	}
	targets, values, err := b.bindSets(sc, spec.Cols, set)
	if err != nil {
		return nil, nil, err
	}
	keep := targets
	if keepAll {
		keep = make([]int, spec.Cols.Len())
		for i := range keep {
			keep[i] = i
		}
	}
	out := &Project{Child: root,
		Exprs: []expr.Expr{expr.Col(spec.Cols.Len(), scanspec.RIDName, types.Int64)},
		Names: []string{scanspec.RIDName}}
	for _, c := range keep {
		col := spec.Cols.Cols[c]
		out.Exprs = append(out.Exprs, expr.Col(c, col.Name, col.Type))
		out.Names = append(out.Names, col.Name)
	}
	for k, c := range targets {
		out.Exprs = append(out.Exprs, values[k])
		out.Names = append(out.Names, "$set_"+spec.Cols.Cols[c].Name)
	}
	return out, targets, nil
}

// bindSets binds SET clauses over the scan's scope: their target columns, in
// clause order, and the expressions of the new values. A bare NULL takes its
// target's type.
func (b *Binder) bindSets(sc *scope, cols *types.Schema, set []sql.SetClause) ([]int, []expr.Expr, error) {
	var targets []int
	var values []expr.Expr
	for _, s := range set {
		c := cols.Find(s.Col)
		if c < 0 {
			return nil, nil, fmt.Errorf("plan: no column %q", s.Col)
		}
		if slices.Contains(targets, c) {
			return nil, nil, fmt.Errorf("plan: column %q is set twice", s.Col)
		}
		e, err := b.bindExpr(sc, s.Expr, nil)
		if err != nil {
			return nil, nil, err
		}
		if isUntypedNull(e) {
			e = &expr.Const{Val: types.NewNull(cols.Cols[c].Type.Kind)}
		}
		targets = append(targets, c)
		values = append(values, e)
	}
	return targets, values, nil
}

// BindSelect binds a query into a logical plan.
func (b *Binder) BindSelect(s *sql.SelectStmt) (Node, error) {
	// 1. FROM.
	var root Node
	var sc *scope
	if len(s.From) == 0 {
		root = &Values{Rows: [][]types.Value{{}}, Cols: &types.Schema{}}
		sc = &scope{}
	} else {
		var err error
		root, sc, err = b.bindFrom(s.From[0])
		if err != nil {
			return nil, err
		}
		for _, tr := range s.From[1:] {
			rhs, rsc, err := b.bindFrom(tr)
			if err != nil {
				return nil, err
			}
			rsc2 := &scope{}
			for _, c := range rsc.cols {
				c.idx += root.Schema().Len()
				rsc2.cols = append(rsc2.cols, c)
			}
			root = &Join{Kind: JoinCross, Left: root, Right: rhs}
			sc = sc.merge(rsc2)
		}
	}
	// 2. WHERE — conjunct by conjunct so subquery predicates become joins.
	if s.Where != nil {
		var err error
		root, sc, err = b.bindWhere(root, sc, s.Where)
		if err != nil {
			return nil, err
		}
	}
	// 3. Aggregation.
	aggCalls := collectAggs(s)
	grouped := len(s.GroupBy) > 0 || len(aggCalls) > 0
	var hook leafHook
	if grouped {
		var err error
		root, hook, err = b.bindAggregate(root, sc, s, aggCalls)
		if err != nil {
			return nil, err
		}
		// Post-aggregation scope is positional through the hook only.
		sc = &scope{}
	}
	// 4. HAVING.
	if s.Having != nil {
		if !grouped {
			return nil, fmt.Errorf("plan: HAVING without aggregation")
		}
		pred, err := b.bindExpr(sc, s.Having, hook)
		if err != nil {
			return nil, err
		}
		if pred.Type().Kind != types.KindBool {
			return nil, fmt.Errorf("plan: HAVING must be boolean")
		}
		root = &Select{Child: root, Pred: pred}
	}
	// 5. Select list.
	var exprs []expr.Expr
	var names []string
	for i, item := range s.Items {
		if item.Star {
			if grouped {
				return nil, fmt.Errorf("plan: SELECT * with GROUP BY")
			}
			for _, c := range sc.cols {
				exprs = append(exprs, expr.Col(c.idx, c.name, c.typ))
				names = append(names, c.name)
			}
			continue
		}
		e, err := b.bindExpr(sc, item.Expr, hook)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		name := item.Alias
		if name == "" {
			name = deriveName(item.Expr, i)
		}
		names = append(names, name)
	}
	visible := len(exprs)
	// 6. ORDER BY keys: output aliases and ordinals resolve against the
	// select list; otherwise reuse a projected expression or append hidden
	// columns.
	var sortKeys []SortKey
	for _, oi := range s.OrderBy {
		if key, ok := orderTarget(oi.Expr, s.Items, names); ok {
			sortKeys = append(sortKeys, SortKey{Col: key, Desc: oi.Desc})
			continue
		}
		e, err := b.bindExpr(sc, oi.Expr, hook)
		if err != nil {
			return nil, err
		}
		key := -1
		for i, pe := range exprs {
			if expr.Equal(pe, e) {
				key = i
				break
			}
		}
		if key < 0 {
			key = len(exprs)
			exprs = append(exprs, e)
			names = append(names, fmt.Sprintf("$sort%d", key))
		}
		sortKeys = append(sortKeys, SortKey{Col: key, Desc: oi.Desc})
	}
	root = &Project{Child: root, Exprs: exprs, Names: names}
	// 7. DISTINCT.
	if s.Distinct {
		if len(sortKeys) > 0 {
			return nil, fmt.Errorf("plan: DISTINCT with ORDER BY is not supported")
		}
		n := root.Schema().Len()
		groups := make([]int, n)
		dn := make([]string, n)
		for i := range groups {
			groups[i] = i
			dn[i] = root.Schema().Cols[i].Name
		}
		root = &Aggregate{Child: root, GroupCols: groups, Names: dn}
	}
	// 8. Sort + drop hidden columns.
	if len(sortKeys) > 0 {
		root = &Sort{Child: root, Keys: sortKeys}
		if len(exprs) > visible {
			var ve []expr.Expr
			var vn []string
			for i := 0; i < visible; i++ {
				c := root.Schema().Cols[i]
				ve = append(ve, expr.Col(i, c.Name, c.Type))
				vn = append(vn, c.Name)
			}
			root = &Project{Child: root, Exprs: ve, Names: vn}
		}
	}
	// 9. LIMIT / OFFSET.
	if s.Limit >= 0 || s.Offset > 0 {
		root = &Limit{Child: root, Offset: s.Offset, N: s.Limit}
	}
	return root, nil
}

// orderTarget resolves ORDER BY <alias> and ORDER BY <ordinal> against the
// select list.
func orderTarget(e sql.ExprNode, items []sql.SelectItem, names []string) (int, bool) {
	switch n := e.(type) {
	case *sql.ColName:
		if n.Table != "" {
			return 0, false
		}
		for i, name := range names {
			if name == n.Name {
				return i, true
			}
		}
		_ = items
	case *sql.Lit:
		if n.Val.Kind.Integral() && !n.Val.Null {
			ord := int(n.Val.AsInt())
			if ord >= 1 && ord <= len(names) {
				return ord - 1, true
			}
		}
	}
	return 0, false
}

func deriveName(e sql.ExprNode, i int) string {
	switch n := e.(type) {
	case *sql.ColName:
		return n.Name
	case *sql.FuncCall:
		return n.Name
	default:
		return fmt.Sprintf("col%d", i)
	}
}

// bindFrom binds one FROM element.
func (b *Binder) bindFrom(tr sql.TableRef) (Node, *scope, error) {
	switch t := tr.(type) {
	case *sql.BaseTable:
		meta, err := b.Cat.ResolveTable(t.Name)
		if err != nil {
			return nil, nil, err
		}
		qual := t.Alias
		if qual == "" {
			qual = t.Name
		}
		scan := &Scan{Spec: &scanspec.Spec{Table: meta.Name, Structure: meta.Structure,
			Cols: meta.Schema.Clone()}, Alias: qual, Key: meta.Key}
		return scan, scopeOf(qual, scan.Spec.Cols, 0), nil
	case *sql.SubqueryTable:
		sub, err := b.BindSelect(t.Query)
		if err != nil {
			return nil, nil, err
		}
		return sub, scopeOf(t.Alias, sub.Schema(), 0), nil
	case *sql.JoinRef:
		left, lsc, err := b.bindFrom(t.Left)
		if err != nil {
			return nil, nil, err
		}
		right, rsc, err := b.bindFrom(t.Right)
		if err != nil {
			return nil, nil, err
		}
		rsc2 := &scope{}
		for _, c := range rsc.cols {
			c.idx += left.Schema().Len()
			rsc2.cols = append(rsc2.cols, c)
		}
		joint := lsc.merge(rsc2)
		var kind JoinKind
		switch t.Kind {
		case "inner":
			kind = JoinInner
		case "left":
			kind = JoinLeft
		case "cross":
			kind = JoinCross
		case "semi":
			kind = JoinSemi
		case "anti":
			kind = JoinAnti
		default:
			return nil, nil, fmt.Errorf("plan: join kind %q", t.Kind)
		}
		j := &Join{Kind: kind, Left: left, Right: right}
		if t.On != nil {
			on, err := b.bindExpr(joint, t.On, nil)
			if err != nil {
				return nil, nil, err
			}
			if on.Type().Kind != types.KindBool {
				return nil, nil, fmt.Errorf("plan: ON must be boolean")
			}
			j.On = on
		}
		outSc := joint
		if kind == JoinSemi || kind == JoinAnti {
			outSc = lsc
		}
		if kind == JoinLeft {
			// Right columns become nullable in scope.
			outSc = &scope{}
			outSc.cols = append(outSc.cols, lsc.cols...)
			for _, c := range rsc2.cols {
				c.typ = c.typ.Null()
				outSc.cols = append(outSc.cols, c)
			}
		}
		return j, outSc, nil
	}
	return nil, nil, fmt.Errorf("plan: unsupported FROM element %T", tr)
}

// bindWhere splits the WHERE conjunction: subquery predicates (IN/EXISTS)
// become semi/anti joins, everything else a Select.
func (b *Binder) bindWhere(root Node, sc *scope, where sql.ExprNode) (Node, *scope, error) {
	var plain []sql.ExprNode
	var conj func(n sql.ExprNode)
	var subs []sql.ExprNode
	conj = func(n sql.ExprNode) {
		if bo, ok := n.(*sql.BinOp); ok && bo.Op == "and" {
			conj(bo.L)
			conj(bo.R)
			return
		}
		switch e := n.(type) {
		case *sql.InExpr:
			if e.Sub != nil {
				subs = append(subs, n)
				return
			}
		case *sql.ExistsExpr:
			subs = append(subs, n)
			return
		case *sql.UnOp:
			if inner, ok := e.E.(*sql.ExistsExpr); ok && e.Op == "not" {
				subs = append(subs, &sql.ExistsExpr{Sub: inner.Sub, Not: !inner.Not})
				return
			}
		}
		plain = append(plain, n)
	}
	conj(where)
	for _, sub := range subs {
		var err error
		root, err = b.bindSubqueryPred(root, sc, sub)
		if err != nil {
			return nil, nil, err
		}
	}
	for _, pn := range plain {
		pred, err := b.bindExpr(sc, pn, nil)
		if err != nil {
			return nil, nil, err
		}
		if pred.Type().Kind != types.KindBool {
			return nil, nil, fmt.Errorf("plan: WHERE must be boolean, got %v", pred.Type())
		}
		root = &Select{Child: root, Pred: pred}
	}
	return root, sc, nil
}

// bindSubqueryPred turns `x IN (SELECT…)`, `x NOT IN (SELECT…)` and
// `[NOT] EXISTS (SELECT…)` into semi/anti joins (uncorrelated only — the
// documented scope of this reproduction).
func (b *Binder) bindSubqueryPred(root Node, sc *scope, n sql.ExprNode) (Node, error) {
	switch e := n.(type) {
	case *sql.InExpr:
		sub, err := b.BindSelect(e.Sub)
		if err != nil {
			return nil, err
		}
		if sub.Schema().Len() != 1 {
			return nil, fmt.Errorf("plan: IN subquery must return one column")
		}
		lhs, err := b.bindExpr(sc, e.E, nil)
		if err != nil {
			return nil, err
		}
		rhsT := sub.Schema().Cols[0].Type
		if types.CommonNumeric(lhs.Type().Kind, rhsT.Kind) != types.KindInvalid &&
			lhs.Type().Kind != rhsT.Kind {
			// Promote the outer side via projection on top of root later;
			// promote lhs expression directly.
			lhs = expr.Promote(lhs, types.CommonNumeric(lhs.Type().Kind, rhsT.Kind))
			if rhsT.Kind != lhs.Type().Kind {
				sub = &Project{Child: sub,
					Exprs: []expr.Expr{expr.Promote(expr.Col(0, "k", rhsT), lhs.Type().Kind)},
					Names: []string{"k"}}
			}
		} else if lhs.Type().Kind != rhsT.Kind {
			return nil, fmt.Errorf("plan: IN types %v vs %v", lhs.Type(), rhsT)
		}
		// Materialize the probe key as an extra column so the join key is
		// a bare column on both sides.
		root, lhsCol := appendColumn(root, lhs, "$inkey")
		kind := JoinSemi
		if e.Not {
			kind = JoinAnti
			if lhs.Type().Nullable || sub.Schema().Cols[0].Type.Nullable {
				kind = JoinAntiNull
			}
		}
		on := expr.NewCall("=",
			expr.Col(lhsCol, "$inkey", lhs.Type()),
			expr.Col(root.Schema().Len(), "k", sub.Schema().Cols[0].Type))
		j := &Join{Kind: kind, Left: root, Right: sub, On: on}
		// Drop the helper column.
		return dropColumns(j, []int{lhsCol}), nil
	case *sql.ExistsExpr:
		sub, err := b.BindSelect(e.Sub)
		if err != nil {
			return nil, err
		}
		// EXISTS ignores values: reduce the subquery to one constant col.
		sub = &Project{Child: sub, Exprs: []expr.Expr{expr.CInt32(1)}, Names: []string{"one"}}
		root2, lhsCol := appendColumn(root, expr.CInt32(1), "$exkey")
		kind := JoinSemi
		if e.Not {
			kind = JoinAnti
		}
		on := expr.NewCall("=",
			expr.Col(lhsCol, "$exkey", types.Int32),
			expr.Col(root2.Schema().Len(), "one", types.Int32))
		j := &Join{Kind: kind, Left: root2, Right: sub, On: on}
		return dropColumns(j, []int{lhsCol}), nil
	}
	return nil, fmt.Errorf("plan: unsupported subquery predicate %T", n)
}

// appendColumn projects child's columns plus one extra expression,
// returning the new node and the extra column's index.
func appendColumn(n Node, e expr.Expr, name string) (Node, int) {
	s := n.Schema()
	var exprs []expr.Expr
	var names []string
	for i, c := range s.Cols {
		exprs = append(exprs, expr.Col(i, c.Name, c.Type))
		names = append(names, c.Name)
	}
	exprs = append(exprs, e)
	names = append(names, name)
	return &Project{Child: n, Exprs: exprs, Names: names}, len(exprs) - 1
}

// dropColumns projects away the given column indexes.
func dropColumns(n Node, drop []int) Node {
	dropSet := map[int]bool{}
	for _, d := range drop {
		dropSet[d] = true
	}
	s := n.Schema()
	var exprs []expr.Expr
	var names []string
	for i, c := range s.Cols {
		if dropSet[i] {
			continue
		}
		exprs = append(exprs, expr.Col(i, c.Name, c.Type))
		names = append(names, c.Name)
	}
	return &Project{Child: n, Exprs: exprs, Names: names}
}

// collectAggs gathers aggregate calls appearing anywhere in the query's
// output expressions.
func collectAggs(s *sql.SelectStmt) []*sql.FuncCall {
	var out []*sql.FuncCall
	var walk func(n sql.ExprNode)
	walk = func(n sql.ExprNode) {
		switch e := n.(type) {
		case *sql.FuncCall:
			if isAggName(e.Name) {
				out = append(out, e)
				return
			}
			for _, a := range e.Args {
				walk(a)
			}
		case *sql.BinOp:
			walk(e.L)
			walk(e.R)
		case *sql.UnOp:
			walk(e.E)
		case *sql.CaseExpr:
			for _, w := range e.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			if e.Else != nil {
				walk(e.Else)
			}
		case *sql.CastExpr:
			walk(e.E)
		case *sql.IsNullExpr:
			walk(e.E)
		case *sql.BetweenExpr:
			walk(e.E)
			walk(e.Lo)
			walk(e.Hi)
		case *sql.InExpr:
			walk(e.E)
			for _, le := range e.List {
				walk(le)
			}
		}
	}
	for _, item := range s.Items {
		if !item.Star {
			walk(item.Expr)
		}
	}
	if s.Having != nil {
		walk(s.Having)
	}
	for _, oi := range s.OrderBy {
		walk(oi.Expr)
	}
	return out
}

func isAggName(n string) bool {
	switch n {
	case "count", "sum", "min", "max", "avg":
		return true
	}
	return false
}

// bindAggregate builds Project(child) + Aggregate and returns a leaf hook
// that maps group expressions and aggregate calls to aggregate outputs.
func (b *Binder) bindAggregate(child Node, sc *scope, s *sql.SelectStmt, aggCalls []*sql.FuncCall) (Node, leafHook, error) {
	var preExprs []expr.Expr
	var preNames []string
	var groupBound []expr.Expr
	for i, g := range s.GroupBy {
		e, err := b.bindExpr(sc, g, nil)
		if err != nil {
			return nil, nil, err
		}
		groupBound = append(groupBound, e)
		preExprs = append(preExprs, e)
		preNames = append(preNames, fmt.Sprintf("$g%d", i))
	}
	type boundAgg struct {
		fn  string
		arg expr.Expr // nil for count(*)
		out int       // aggregate output column
	}
	var bound []boundAgg
	var items []AggItem
	for _, fc := range aggCalls {
		var arg expr.Expr
		col := -1
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, nil, fmt.Errorf("plan: %s takes one argument", fc.Name)
			}
			e, err := b.bindExpr(sc, fc.Args[0], nil)
			if err != nil {
				return nil, nil, err
			}
			arg = e
			// Reuse an identical pre-projection column.
			col = -1
			for i, pe := range preExprs {
				if expr.Equal(pe, e) {
					col = i
					break
				}
			}
			if col < 0 {
				col = len(preExprs)
				preExprs = append(preExprs, e)
				preNames = append(preNames, fmt.Sprintf("$a%d", len(preExprs)))
			}
		} else if fc.Name != "count" {
			return nil, nil, fmt.Errorf("plan: %s(*) is not valid", fc.Name)
		}
		// Deduplicate identical aggregate calls.
		dup := -1
		for i, ba := range bound {
			if ba.fn == fc.Name && ((ba.arg == nil && arg == nil) || (ba.arg != nil && arg != nil && expr.Equal(ba.arg, arg))) {
				dup = i
				break
			}
		}
		if dup >= 0 {
			bound = append(bound, boundAgg{fn: fc.Name, arg: arg, out: bound[dup].out})
			continue
		}
		outIdx := len(groupBound) + len(items)
		items = append(items, AggItem{Fn: fc.Name, Col: col})
		bound = append(bound, boundAgg{fn: fc.Name, arg: arg, out: outIdx})
	}
	pre := &Project{Child: child, Exprs: preExprs, Names: preNames}
	groupCols := make([]int, len(groupBound))
	names := make([]string, 0, len(groupBound)+len(items))
	for i := range groupBound {
		groupCols[i] = i
		names = append(names, fmt.Sprintf("$g%d", i))
	}
	for i := range items {
		names = append(names, fmt.Sprintf("$agg%d", i))
	}
	agg := &Aggregate{Child: pre, GroupCols: groupCols, Aggs: items, Names: names}
	aggSchema := agg.Schema()

	// The hook resolves nodes against aggregate outputs by structural
	// matching (binding order differs from collection order: HAVING binds
	// before the select list).
	hook := func(n sql.ExprNode) (expr.Expr, bool, error) {
		if fc, ok := n.(*sql.FuncCall); ok && isAggName(fc.Name) {
			var arg expr.Expr
			if !fc.Star {
				e, err := b.bindExpr(sc, fc.Args[0], nil)
				if err != nil {
					return nil, false, err
				}
				arg = e
			}
			for _, ba := range bound {
				if ba.fn == fc.Name && ((ba.arg == nil && arg == nil) || (ba.arg != nil && arg != nil && expr.Equal(ba.arg, arg))) {
					c := aggSchema.Cols[ba.out]
					return expr.Col(ba.out, c.Name, c.Type), true, nil
				}
			}
			return nil, false, fmt.Errorf("plan: unresolved aggregate %s", fc.Name)
		}
		// Group expression match: bind over the child scope and compare.
		e, err := b.bindExpr(sc, n, nil)
		if err != nil {
			return nil, false, nil // not resolvable below: let caller recurse
		}
		for i, ge := range groupBound {
			if expr.Equal(ge, e) {
				c := aggSchema.Cols[i]
				return expr.Col(i, c.Name, c.Type), true, nil
			}
		}
		if _, ok := n.(*sql.ColName); ok {
			return nil, false, fmt.Errorf("plan: column %s is neither grouped nor aggregated", e)
		}
		return nil, false, nil
	}
	return agg, hook, nil
}
