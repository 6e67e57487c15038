package optimizer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vectorwise/internal/expr"
	"vectorwise/internal/plan"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// planGen builds random plans over the eight node kinds. Every scan column
// has a unique name, and expr.Col carries the name it was built against, so
// a positional reference that was remapped wrongly shows as a name mismatch.
type planGen struct {
	rng    *rand.Rand
	tables int
	names  int
}

func (g *planGen) scan() plan.Node {
	g.tables++
	cols := &types.Schema{}
	for c := 0; c < 3+g.rng.Intn(5); c++ {
		ty := []types.T{types.Int64, types.Int64.Null(), types.Int32, types.String, types.Bool, types.Float64.Null()}[g.rng.Intn(6)]
		if c == 0 {
			ty = types.Int64 // joins, ranges and sums always find a BIGINT
		}
		cols.Cols = append(cols.Cols, types.Col(fmt.Sprintf("t%d_c%d", g.tables, c), ty))
	}
	spec := &scanspec.Spec{Table: fmt.Sprintf("t%d", g.tables), Structure: "vectorwise", Cols: cols}
	if g.rng.Intn(2) == 0 {
		lo := types.NewInt64(int64(g.rng.Intn(100)))
		spec.Ranges = []scanspec.Range{{Col: g.intCol(cols), Lo: &lo}}
		spec.Window = &scanspec.Window{Lo: 1, Hi: 3, Total: 9}
	}
	return &plan.Scan{Spec: spec, Alias: spec.Table, Key: g.rng.Intn(cols.Len()+1) - 1}
}

// intCol picks a BIGINT NOT NULL column of s.
func (g *planGen) intCol(s *types.Schema) int {
	var ok []int
	for i, c := range s.Cols {
		if c.Type == types.Int64 {
			ok = append(ok, i)
		}
	}
	if len(ok) == 0 {
		return -1
	}
	return ok[g.rng.Intn(len(ok))]
}

func colRef(s *types.Schema, i int) *expr.ColRef { return expr.Col(i, s.Cols[i].Name, s.Cols[i].Type) }

func (g *planGen) name() string { g.names++; return fmt.Sprintf("n%d", g.names) }

func (g *planGen) node(depth int) plan.Node {
	if depth == 0 {
		if g.rng.Intn(8) == 0 {
			return &plan.Values{Rows: [][]types.Value{{types.NewInt64(1), types.NewInt64(2)}},
				Cols: types.NewSchema(types.Col(g.name(), types.Int64), types.Col(g.name(), types.Int64))}
		}
		return g.scan()
	}
	child := g.node(depth - 1)
	s := child.Schema()
	switch g.rng.Intn(7) {
	case 0:
		if c := g.intCol(s); c >= 0 {
			return &plan.Select{Child: child, Pred: expr.NewCall(">", colRef(s, c), expr.CInt(int64(g.rng.Intn(50))))}
		}
	case 1:
		p := &plan.Project{Child: child}
		for _, c := range g.rng.Perm(s.Len())[:1+g.rng.Intn(s.Len())] {
			p.Exprs, p.Names = append(p.Exprs, colRef(s, c)), append(p.Names, g.name())
		}
		if c := g.intCol(s); c >= 0 {
			p.Exprs = append(p.Exprs, expr.NewCall("+", colRef(s, c), expr.CInt(1)))
			p.Names = append(p.Names, g.name())
		}
		return p
	case 2:
		right := g.node(depth - 1)
		rs := right.Schema()
		l, r := g.intCol(s), g.intCol(rs)
		kind := []plan.JoinKind{plan.JoinInner, plan.JoinLeft, plan.JoinSemi, plan.JoinAnti, plan.JoinCross}[g.rng.Intn(5)]
		if l < 0 || r < 0 || kind == plan.JoinCross {
			return &plan.Join{Kind: plan.JoinCross, Left: child, Right: right}
		}
		rc := colRef(rs, r)
		rc.Idx += s.Len()
		return &plan.Join{Kind: kind, Left: child, Right: right, On: expr.NewCall("=", colRef(s, l), rc)}
	case 3:
		a := &plan.Aggregate{Child: child}
		for _, c := range g.rng.Perm(s.Len())[:g.rng.Intn(3)] {
			a.GroupCols, a.Names = append(a.GroupCols, c), append(a.Names, g.name())
		}
		a.Aggs, a.Names = append(a.Aggs, plan.AggItem{Fn: "count", Col: -1}), append(a.Names, g.name())
		if c := g.intCol(s); c >= 0 {
			a.Aggs, a.Names = append(a.Aggs, plan.AggItem{Fn: "sum", Col: c}), append(a.Names, g.name())
		}
		return a
	case 4:
		srt := &plan.Sort{Child: child}
		for _, c := range g.rng.Perm(s.Len())[:1+g.rng.Intn(2)] {
			srt.Keys = append(srt.Keys, plan.SortKey{Col: c, Desc: g.rng.Intn(2) == 0})
		}
		return srt
	case 5:
		return &plan.Limit{Child: child, N: int64(g.rng.Intn(10))}
	}
	return child
}

// checkRefs verifies every positional reference of n against its child's
// schema: in range, and — for ColRefs — still naming and typing the column it
// points at.
func checkRefs(t *testing.T, n plan.Node) {
	t.Helper()
	exprOK := func(e expr.Expr, in *types.Schema) {
		expr.Walk(e, func(x expr.Expr) bool {
			if c, ok := x.(*expr.ColRef); ok {
				if c.Idx < 0 || c.Idx >= in.Len() || in.Cols[c.Idx].Name != c.Name || in.Cols[c.Idx].Type.Kind != c.T.Kind {
					t.Errorf("%s: reference %s@%d does not match input %s", n, c.Name, c.Idx, in)
				}
			}
			return true
		})
	}
	switch x := n.(type) {
	case *plan.Select:
		exprOK(x.Pred, x.Child.Schema())
	case *plan.Project:
		for _, e := range x.Exprs {
			exprOK(e, x.Child.Schema())
		}
	case *plan.Join:
		if x.On != nil {
			both := &types.Schema{Cols: append(append([]types.Column{}, x.Left.Schema().Cols...), x.Right.Schema().Cols...)}
			exprOK(x.On, both)
		}
	}
	for _, c := range n.Children() {
		checkRefs(t, c)
	}
}

// checkSame walks the plan before and after pruning in step (pruning keeps
// the tree's shape) and compares everything positional by column name.
func checkSame(t *testing.T, before, after plan.Node) {
	t.Helper()
	name := func(n plan.Node, c int) string {
		if c < 0 {
			return "*"
		}
		return n.Schema().Cols[c].Name
	}
	switch b := before.(type) {
	case *plan.Scan:
		a := after.(*plan.Scan)
		if a.Spec.Table != b.Spec.Table || a.Spec.Structure != b.Spec.Structure || a.Alias != b.Alias || a.Spec.Window != b.Spec.Window {
			t.Errorf("scan identity changed: %s -> %s", b, a)
		}
		at := 0 // the kept columns are a subsequence of the table's
		for _, c := range a.Spec.Cols.Cols {
			for at < b.Spec.Cols.Len() && b.Spec.Cols.Cols[at] != c {
				at++
			}
			if at == b.Spec.Cols.Len() {
				t.Errorf("scan columns %s are not a subsequence of %s", a.Spec.Cols, b.Spec.Cols)
			}
		}
		if len(a.Spec.Ranges) != len(b.Spec.Ranges) {
			t.Fatalf("ranges dropped: %s -> %s", b, a)
		}
		for i, r := range b.Spec.Ranges {
			ar := a.Spec.Ranges[i]
			if name(a, ar.Col) != name(b, r.Col) || ar.Lo != r.Lo || ar.Hi != r.Hi {
				t.Errorf("range %d moved: %s -> %s", i, b, a)
			}
		}
		switch {
		case b.Key < 0 && a.Key != -1:
			t.Errorf("key appeared: %d", a.Key)
		case b.Key >= 0 && a.Key >= 0 && name(a, a.Key) != name(b, b.Key):
			t.Errorf("key moved from %s to %s", name(b, b.Key), name(a, a.Key))
		case b.Key >= 0 && a.Key < 0 && a.Spec.Cols.Find(name(b, b.Key)) >= 0:
			t.Errorf("key column %s kept but Key is -1", name(b, b.Key))
		}
	case *plan.Select:
		if a := after.(*plan.Select); a.Pred.String() != b.Pred.String() {
			t.Errorf("predicate changed: %s -> %s", b, a)
		}
	case *plan.Project:
		a := after.(*plan.Project)
		at := 0
		for i, e := range a.Exprs {
			for at < len(b.Exprs) && (b.Names[at] != a.Names[i] || b.Exprs[at].String() != e.String()) {
				at++
			}
			if at == len(b.Exprs) {
				t.Errorf("projection %s is not a subsequence of %s", a, b)
			}
		}
	case *plan.Join:
		a := after.(*plan.Join)
		if a.Kind != b.Kind || (b.On == nil) != (a.On == nil) || (b.On != nil && a.On.String() != b.On.String()) {
			t.Errorf("join changed: %s -> %s", b, a)
		}
	case *plan.Aggregate:
		a := after.(*plan.Aggregate)
		if len(a.GroupCols) != len(b.GroupCols) || len(a.Aggs) != len(b.Aggs) {
			t.Fatalf("aggregate changed shape: %s -> %s", b, a)
		}
		for i := range b.GroupCols {
			if name(a.Child, a.GroupCols[i]) != name(b.Child, b.GroupCols[i]) {
				t.Errorf("group column %d moved: %s -> %s", i, b, a)
			}
		}
		for i := range b.Aggs {
			if a.Aggs[i].Fn != b.Aggs[i].Fn || name(a.Child, a.Aggs[i].Col) != name(b.Child, b.Aggs[i].Col) {
				t.Errorf("aggregate %d moved: %s -> %s", i, b, a)
			}
		}
	case *plan.Sort:
		a := after.(*plan.Sort)
		for i, k := range b.Keys {
			if a.Keys[i].Desc != k.Desc || name(a.Child, a.Keys[i].Col) != name(b.Child, k.Col) {
				t.Errorf("sort key %d moved: %s -> %s", i, b, a)
			}
		}
	case *plan.Limit:
		if a := after.(*plan.Limit); a.N != b.N || a.Offset != b.Offset {
			t.Errorf("limit changed: %s -> %s", b, a)
		}
	}
	bc, ac := before.Children(), after.Children()
	if len(bc) != len(ac) {
		t.Fatalf("%s has %d children, %s has %d", before, len(bc), after, len(ac))
	}
	for i := range bc {
		checkSame(t, bc[i], ac[i])
	}
}

// checkAllRead recomputes, independently of the pass, which of n's output
// columns its ancestors read (used), and fails on a Scan column nobody
// reads — unless it is the single column a scan with no readers keeps.
func checkAllRead(t *testing.T, n plan.Node, used map[int]bool) {
	t.Helper()
	mark := func(dst map[int]bool, e expr.Expr) {
		for _, c := range expr.Cols(e) {
			dst[c] = true
		}
	}
	clone := func() map[int]bool {
		out := map[int]bool{}
		for c := range used {
			out[c] = true
		}
		return out
	}
	switch x := n.(type) {
	case *plan.Scan:
		for _, r := range x.Spec.Ranges {
			used[r.Col] = true
		}
		if len(used) != x.Spec.Cols.Len() && !(len(used) == 0 && x.Spec.Cols.Len() == 1) {
			t.Errorf("%s: only columns %v are read", x, used)
		}
		if len(used) == 0 {
			only := x.Spec.Cols.Cols[0].Type
			if only.Kind == types.KindString || only.Nullable {
				// Every generated table has a BIGINT NOT NULL column.
				t.Errorf("%s: kept %v for the row count, a narrower NOT NULL column exists", x, only)
			}
		}
	case *plan.Select:
		below := clone()
		mark(below, x.Pred)
		checkAllRead(t, x.Child, below)
	case *plan.Project:
		below := map[int]bool{}
		for i, e := range x.Exprs {
			if used[i] || len(used) == 0 { // an unread projection keeps one expression
				mark(below, e)
			}
		}
		checkAllRead(t, x.Child, below)
	case *plan.Join:
		nl := x.Left.Schema().Len()
		all := clone()
		if x.On != nil {
			mark(all, x.On)
		}
		l, r := map[int]bool{}, map[int]bool{}
		for c := range all {
			if c < nl {
				l[c] = true
			} else {
				r[c-nl] = true
			}
		}
		checkAllRead(t, x.Left, l)
		checkAllRead(t, x.Right, r)
	case *plan.Aggregate:
		below := map[int]bool{}
		for _, g := range x.GroupCols {
			below[g] = true
		}
		for _, a := range x.Aggs {
			if a.Col >= 0 {
				below[a.Col] = true
			}
		}
		checkAllRead(t, x.Child, below)
	case *plan.Sort:
		below := clone()
		for _, k := range x.Keys {
			below[k.Col] = true
		}
		checkAllRead(t, x.Child, below)
	case *plan.Limit:
		checkAllRead(t, x.Child, used)
	}
}

func TestPruneColumnsProperties(t *testing.T) {
	g := &planGen{rng: rand.New(rand.NewSource(16))}
	for i := 0; i < 400; i++ {
		before := g.node(1 + g.rng.Intn(4))
		checkRefs(t, before) // the generator itself must be sound
		after := pruneColumns(before)
		if got, want := after.Schema().String(), before.Schema().String(); got != want {
			t.Fatalf("plan %d: output schema changed from %s to %s\n%s", i, want, got, plan.Format(before))
		}
		checkRefs(t, after)
		checkSame(t, before, after)
		rootUsed := map[int]bool{}
		for c := 0; c < after.Schema().Len(); c++ {
			rootUsed[c] = true
		}
		checkAllRead(t, after, rootUsed)
		if again := pruneColumns(after); plan.Format(again) != plan.Format(after) {
			t.Fatalf("plan %d: not idempotent\nonce:\n%s\ntwice:\n%s", i, plan.Format(after), plan.Format(again))
		}
		if t.Failed() {
			t.Fatalf("plan %d:\nbefore:\n%safter:\n%s", i, plan.Format(before), plan.Format(after))
		}
	}
}

// otherNode is a plan node kind the pass has never heard of.
type otherNode struct{ plan.Limit }

func (o *otherNode) WithChildren(ch []plan.Node) plan.Node {
	return &otherNode{plan.Limit{Child: ch[0], N: o.N}}
}

// An unknown node kind requires all of its child's columns, and pruning
// resumes below the next node the pass does understand.
func TestPruneColumnsUnknownNodeIsConservative(t *testing.T) {
	scan := mkScan("t", 1, types.Col("a", types.Int64), types.Col("b", types.String), types.Col("c", types.Int32))
	s := scan.Schema()
	inner := &plan.Project{Child: scan, Exprs: []expr.Expr{colRef(s, 2), colRef(s, 0)}, Names: []string{"c", "a"}}
	other := &otherNode{plan.Limit{Child: inner, N: 5}}
	os := other.Schema()
	root := &plan.Project{Child: other, Exprs: []expr.Expr{colRef(os, 1)}, Names: []string{"a"}}
	out := plan.Format(pruneColumns(root))
	if !strings.Contains(out, "Project(c, a)") || !strings.Contains(out, "Scan(t:vectorwise, [a, c])") {
		t.Fatalf("unknown node was not treated conservatively:\n%s", out)
	}
	if got := findScan(pruneColumns(root)); got.Key != -1 {
		t.Fatalf("pruned key column b left Key = %d", got.Key)
	}
}

func TestCheapestColumn(t *testing.T) {
	for _, c := range []struct {
		cols []types.Column
		want int
	}{
		{[]types.Column{types.Col("s", types.String), types.Col("k", types.Int64), types.Col("q", types.Int32), types.Col("d", types.Date)}, 2},
		{[]types.Column{types.Col("k", types.Int64), types.Col("b", types.Bool.Null()), types.Col("q", types.Int32)}, 1},
		{[]types.Column{types.Col("n", types.Int32.Null()), types.Col("f", types.Float64), types.Col("q", types.Int32)}, 2},
		{[]types.Column{types.Col("s", types.String.Null()), types.Col("t", types.String)}, 1},
	} {
		if got := cheapestColumn(types.NewSchema(c.cols...)); got != c.want {
			t.Errorf("cheapestColumn(%v) = %d, want %d", c.cols, got, c.want)
		}
	}
}

// The position column of a RID scan is not stored: pruning never drops it,
// never keeps it as the one column that carries the row count, and leaves it
// last, with every reference to it moved along.
func TestPruneColumnsKeepsRIDLast(t *testing.T) {
	ridScan := func(key int, cols ...types.Column) *plan.Scan {
		s := mkScan("t", key, cols...)
		s.Spec.RID = true
		return s
	}
	project := func(child plan.Node, cols ...int) *plan.Project {
		p := &plan.Project{Child: child}
		for _, c := range cols {
			p.Exprs, p.Names = append(p.Exprs, colRef(child.Schema(), c)), append(p.Names, child.Schema().Cols[c].Name)
		}
		return p
	}

	// UPDATE t SET b = … WHERE a > 1: the search reads a, emits $rid and b.
	scan := ridScan(0, types.Col("a", types.Int64), types.Col("b", types.Int64.Null()),
		types.Col("c", types.String), types.Col("d", types.Float64))
	lo := types.NewInt64(1)
	scan.Spec.Ranges = []scanspec.Range{{Col: 0, Lo: &lo}}
	sel := &plan.Select{Child: scan, Pred: expr.NewCall(">", colRef(scan.Schema(), 0), expr.CInt(1))}
	out := pruneColumns(project(sel, 4, 1))
	checkRefs(t, out)
	if got, want := plan.Format(out), "Project($rid, b)\n  Select((a > 1))\n    Scan(t:vectorwise, [a, b, $rid], ranges=[$0 in [1,+inf]])\n"; got != want {
		t.Errorf("pruned search plan:\n%swant:\n%s", got, want)
	}
	if s := findScan(out); !s.Spec.RID || s.Key != 0 || s.Spec.Cols.Len() != 2 {
		t.Errorf("pruned scan: RID=%v Key=%d Cols=%s", s.Spec.RID, s.Key, s.Spec.Cols)
	}

	// DELETE FROM t: only positions are read, so the cheapest stored column
	// stays to carry the row count.
	all := ridScan(-1, types.Col("s", types.String), types.Col("k", types.Int64), types.Col("q", types.Int32))
	out = pruneColumns(project(all, 3))
	checkRefs(t, out)
	if got, want := plan.Format(out), "Project($rid)\n  Scan(t:vectorwise, [q, $rid])\n"; got != want {
		t.Errorf("pruned unfiltered search:\n%swant:\n%s", got, want)
	}

	// Everything read: the scan node is kept as it is.
	full := project(all, 3, 0, 1, 2)
	if got := findScan(pruneColumns(full)); got != all {
		t.Errorf("fully read RID scan was rebuilt: %s", got)
	}
}
