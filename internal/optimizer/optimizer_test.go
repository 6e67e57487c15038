package optimizer

import (
	"math"

	"strings"
	"testing"

	"vectorwise/internal/expr"
	"vectorwise/internal/plan"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

type fakeStats struct {
	rows map[string]int64
	cols map[string]*ColStats
}

func (f *fakeStats) TableRows(t string) int64 {
	if r, ok := f.rows[t]; ok {
		return r
	}
	return -1
}

func (f *fakeStats) Column(t, c string) *ColStats { return f.cols[t+"."+c] }

func mkScan(name string, key int, cols ...types.Column) *plan.Scan {
	return &plan.Scan{Key: key, Spec: &scanspec.Spec{Table: name, Structure: "vectorwise",
		Cols: types.NewSchema(cols...)}}
}

func TestBuildColStats(t *testing.T) {
	var vals []types.Value
	for i := 0; i < 1000; i++ {
		vals = append(vals, types.NewInt64(int64(i)))
	}
	st := BuildColStats(vals, 10, 100)
	if st.Distinct != 1000 || st.Min.Int64() != 0 || st.Max.Int64() != 999 {
		t.Fatalf("stats: %+v", st)
	}
	if st.NullFrac < 0.09 || st.NullFrac > 0.1 {
		t.Fatalf("nullfrac: %v", st.NullFrac)
	}
	// Histogram-based range selectivity ~ linear.
	got := st.SelLE(types.NewInt64(499))
	if got < 0.40 || got > 0.50 {
		t.Fatalf("SelLE(499) = %v", got)
	}
	if st.SelLE(types.NewInt64(-5)) != 0 {
		t.Fatal("below min")
	}
	if st.SelLE(types.NewInt64(5000)) <= 0.89 {
		t.Fatal("above max should be ~1-nullfrac")
	}
	if eq := st.SelEq(); eq <= 0 || eq >= 0.01 {
		t.Fatalf("SelEq = %v", eq)
	}
	// Empty stats degrade gracefully.
	empty := BuildColStats(nil, 10, 0)
	if empty.SelLE(types.NewInt64(1)) != defaultRangeSel {
		t.Fatal("empty stats default")
	}
}

func TestPushdownThroughProjectAndJoin(t *testing.T) {
	l := mkScan("l", -1, types.Col("a", types.Int64), types.Col("x", types.Int64))
	r := mkScan("r", -1, types.Col("b", types.Int64))
	j := &plan.Join{Kind: plan.JoinInner, Left: l, Right: r,
		On: expr.NewCall("=", expr.Col(0, "a", types.Int64), expr.Col(2, "b", types.Int64))}
	pred := expr.NewCall("and",
		expr.NewCall(">", expr.Col(1, "x", types.Int64), expr.CInt(5)),   // left side
		expr.NewCall("<", expr.Col(2, "b", types.Int64), expr.CInt(100))) // right side
	root := &plan.Select{Child: j, Pred: pred}
	opt := New(nil)
	out := opt.Optimize(root)
	f := plan.Format(out)
	// Both conjuncts must sit below the join.
	jLine := strings.Index(f, "Join")
	xLine := strings.Index(f, "(x > 5)")
	bLine := strings.Index(f, "(b < 100)")
	if xLine < jLine || bLine < jLine {
		t.Fatalf("predicates not pushed below join:\n%s", f)
	}
}

func TestCrossPredicateBecomesJoinCondition(t *testing.T) {
	l := mkScan("l", -1, types.Col("a", types.Int64))
	r := mkScan("r", -1, types.Col("b", types.Int64))
	j := &plan.Join{Kind: plan.JoinCross, Left: l, Right: r}
	root := &plan.Select{Child: j,
		Pred: expr.NewCall("=", expr.Col(0, "a", types.Int64), expr.Col(1, "b", types.Int64))}
	out := New(nil).Optimize(root)
	found := false
	var rec func(plan.Node)
	rec = func(n plan.Node) {
		if jj, ok := n.(*plan.Join); ok && jj.Kind == plan.JoinInner && jj.On != nil {
			found = true
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(out)
	if !found {
		t.Fatalf("cross+pred did not become inner join:\n%s", plan.Format(out))
	}
}

func TestJoinReorderPutsSmallFirst(t *testing.T) {
	big := mkScan("big", -1, types.Col("a", types.Int64))
	mid := mkScan("mid", -1, types.Col("b", types.Int64))
	small := mkScan("small", -1, types.Col("c", types.Int64))
	stats := &fakeStats{rows: map[string]int64{"big": 1_000_000, "mid": 10_000, "small": 10}}
	// (big ⋈ mid) ⋈ small with chain predicates.
	j1 := &plan.Join{Kind: plan.JoinInner, Left: big, Right: mid,
		On: expr.NewCall("=", expr.Col(0, "a", types.Int64), expr.Col(1, "b", types.Int64))}
	j2 := &plan.Join{Kind: plan.JoinInner, Left: j1, Right: small,
		On: expr.NewCall("=", expr.Col(1, "b", types.Int64), expr.Col(2, "c", types.Int64))}
	out := New(stats).Optimize(j2)
	// The first (deepest-left) relation must be the small one.
	var leftmost *plan.Scan
	var rec func(plan.Node)
	rec = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && leftmost == nil {
			leftmost = s
		}
		ch := n.Children()
		if len(ch) > 0 {
			rec(ch[0])
		}
	}
	rec(out)
	if leftmost == nil || leftmost.Spec.Table != "small" {
		t.Fatalf("leftmost = %v:\n%s", leftmost, plan.Format(out))
	}
	// Output column order restored.
	if out.Schema().Len() != 3 || out.Schema().Cols[0].Name != "a" {
		t.Fatalf("schema after reorder: %s", out.Schema())
	}
}

// groupCount reports how many group columns the optimized aggregate keeps.
func groupCount(t *testing.T, out plan.Node) int {
	t.Helper()
	var found *plan.Aggregate
	var rec func(plan.Node)
	rec = func(n plan.Node) {
		if a, ok := n.(*plan.Aggregate); ok {
			found = a
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(out)
	if found == nil {
		t.Fatalf("no aggregate:\n%s", plan.Format(out))
	}
	return len(found.GroupCols)
}

// Grouping on an enforced key (a heap table's PRIMARY KEY) demotes the other
// group columns, of any kind and NULLable or not, to MAX. A vectorwise
// table's key is not enforced: it keeps every group column.
func TestGroupBySimplificationByKey(t *testing.T) {
	keyed := func(structure string, payload types.T) *plan.Aggregate {
		s := mkScan("t", 0, types.Col("pk", types.Int64), types.Col("payload", payload))
		s.Spec.Structure = structure
		return &plan.Aggregate{Child: s, GroupCols: []int{0, 1},
			Aggs: []plan.AggItem{{Fn: "count", Col: -1}}, Names: []string{"pk", "payload", "cnt"}}
	}
	for _, payload := range []types.T{types.String, types.String.Null(), types.Bool.Null()} {
		out := New(nil).Optimize(keyed("heap", payload))
		if groupCount(t, out) != 1 {
			t.Errorf("payload %v: FD simplification missed:\n%s", payload, plan.Format(out))
		}
		if out.Schema().Len() != 3 {
			t.Errorf("payload %v: schema shape: %s", payload, out.Schema())
		}
	}
	if out := New(nil).Optimize(keyed("vectorwise", types.String)); groupCount(t, out) != 2 {
		t.Errorf("vectorwise table: simplified anyway:\n%s", plan.Format(out))
	}
}

func TestEstimates(t *testing.T) {
	stats := &fakeStats{rows: map[string]int64{"t": 10_000}}
	o := New(stats)
	s := mkScan("t", -1, types.Col("a", types.Int64))
	if got := o.EstimateRows(s); got != 10_000 {
		t.Fatalf("scan estimate: %v", got)
	}
	sel := &plan.Select{Child: s, Pred: expr.NewCall("=", expr.Col(0, "a", types.Int64), expr.CInt(5))}
	if got := o.EstimateRows(sel); got != 1000 { // default eq selectivity 0.1
		t.Fatalf("select estimate: %v", got)
	}
	lim := &plan.Limit{Child: s, N: 7}
	if got := o.EstimateRows(lim); got != 7 {
		t.Fatalf("limit estimate: %v", got)
	}
}

// findScan returns the first Scan in a plan (prefix order).
func findScan(n plan.Node) *plan.Scan {
	if s, ok := n.(*plan.Scan); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := findScan(c); s != nil {
			return s
		}
	}
	return nil
}

func TestScanRangeExtraction(t *testing.T) {
	scan := mkScan("t", -1, types.Col("k", types.Int64), types.Col("s", types.String))
	pred := expr.NewCall("and",
		expr.NewCall("and",
			expr.NewCall(">=", expr.Col(0, "k", types.Int64), expr.CInt(10)),
			expr.NewCall("<=", expr.Col(0, "k", types.Int64), expr.CInt(20))),
		expr.NewCall("=", expr.Col(1, "s", types.String), expr.CStr("x")))
	out := New(nil).Optimize(&plan.Select{Child: scan, Pred: pred})
	got := findScan(out)
	if got == nil || len(got.Spec.Ranges) != 2 {
		t.Fatalf("ranges not extracted:\n%s", plan.Format(out))
	}
	byCol := map[int]scanspec.Range{}
	for _, r := range got.Spec.Ranges {
		byCol[r.Col] = r
	}
	k := byCol[0]
	if k.Lo == nil || k.Hi == nil || k.Lo.I64 != 10 || k.Hi.I64 != 20 {
		t.Fatalf("k range = %v", k)
	}
	s := byCol[1]
	if s.Lo == nil || s.Hi == nil || s.Lo.Str != "x" || s.Hi.Str != "x" {
		t.Fatalf("s range = %v", s)
	}
	// The residual Selects must survive — skipping is block-granular only.
	selects := 0
	var rec func(plan.Node)
	rec = func(n plan.Node) {
		if _, ok := n.(*plan.Select); ok {
			selects++
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(out)
	if selects == 0 {
		t.Fatalf("residual Select dropped:\n%s", plan.Format(out))
	}
}

func TestScanRangeIntersectionAndFlip(t *testing.T) {
	scan := mkScan("t", -1, types.Col("k", types.Int64))
	// k > 5 AND k > 10 AND 100 >= k (flipped) intersect to [10, 100].
	pred := expr.NewCall("and",
		expr.NewCall("and",
			expr.NewCall(">", expr.Col(0, "k", types.Int64), expr.CInt(5)),
			expr.NewCall(">", expr.Col(0, "k", types.Int64), expr.CInt(10))),
		expr.NewCall(">=", expr.CInt(100), expr.Col(0, "k", types.Int64)))
	got := findScan(New(nil).Optimize(&plan.Select{Child: scan, Pred: pred}))
	if got == nil || len(got.Spec.Ranges) != 1 {
		t.Fatal("want one merged range")
	}
	r := got.Spec.Ranges[0]
	if r.Lo == nil || r.Lo.I64 != 10 || r.Hi == nil || r.Hi.I64 != 100 {
		t.Fatalf("merged range = %v", r)
	}
}

func TestScanRangeIgnoresNonSargable(t *testing.T) {
	scan := mkScan("t", -1, types.Col("k", types.Int64))
	// k+0 > 5 is not a bare column comparison; BETWEEN with a column bound
	// is not constant. Neither may produce a range.
	pred := expr.NewCall("and",
		expr.NewCall(">", expr.NewCall("+", expr.Col(0, "k", types.Int64), expr.CInt(0)), expr.CInt(5)),
		expr.NewCall("between", expr.Col(0, "k", types.Int64),
			expr.Col(0, "k", types.Int64), expr.CInt(9)))
	got := findScan(New(nil).Optimize(&plan.Select{Child: scan, Pred: pred}))
	if got != nil && len(got.Spec.Ranges) != 0 {
		t.Fatalf("non-sargable predicates produced ranges: %v", got.Spec.Ranges)
	}
}

func TestScanRangeBetween(t *testing.T) {
	scan := mkScan("t", -1, types.Col("k", types.Int64))
	pred := expr.NewCall("between", expr.Col(0, "k", types.Int64), expr.CInt(3), expr.CInt(7))
	got := findScan(New(nil).Optimize(&plan.Select{Child: scan, Pred: pred}))
	if got == nil || len(got.Spec.Ranges) != 1 {
		t.Fatal("BETWEEN not extracted")
	}
	r := got.Spec.Ranges[0]
	if r.Lo == nil || r.Lo.I64 != 3 || r.Hi == nil || r.Hi.I64 != 7 {
		t.Fatalf("between range = %v", r)
	}
}

// summaryStats is a fakeStats that also serves block-summary bounds.
type summaryStats struct {
	fakeStats
	bounds map[string][2]types.Value
}

func (s *summaryStats) ColumnBounds(table, col string) (types.Value, types.Value, bool) {
	b, ok := s.bounds[table+"."+col]
	return b[0], b[1], ok
}

func TestSummaryBoundsTightenEstimates(t *testing.T) {
	st := &summaryStats{
		fakeStats: fakeStats{rows: map[string]int64{"t": 10000}},
		bounds:    map[string][2]types.Value{"t.k": {types.NewInt64(0), types.NewInt64(999)}},
	}
	scan := mkScan("t", -1, types.Col("k", types.Int64))
	sel := &plan.Select{Child: scan,
		Pred: expr.NewCall("<=", expr.Col(0, "k", types.Int64), expr.CInt(99))}
	est := New(st).EstimateRows(sel)
	// Linear interpolation between summary bounds: ~10% of 10000 rows,
	// far tighter than the 1/3 default.
	if est < 500 || est > 1500 {
		t.Fatalf("summary-backed estimate = %v, want ~1000", est)
	}
	noBounds := New(&fakeStats{rows: map[string]int64{"t": 10000}}).EstimateRows(sel)
	if noBounds < 3000 {
		t.Fatalf("default estimate = %v, want ~3333", noBounds)
	}
}

func TestSummaryColStatsRejectsNonFiniteBounds(t *testing.T) {
	if st := SummaryColStats(types.NewFloat64(math.Inf(-1)), types.NewFloat64(math.Inf(1))); st != nil {
		t.Fatal("infinite summary bounds must fall back to defaults")
	}
	if st := SummaryColStats(types.NewFloat64(0), types.NewFloat64(100)); st == nil {
		t.Fatal("finite bounds rejected")
	}
}

// Constants fold once, here, before range extraction reads the literals:
// in a Select, a Project and a join's ON condition.
func TestConstantFoldingPass(t *testing.T) {
	l := mkScan("l", -1, types.Col("x", types.Int64))
	r := mkScan("r", -1, types.Col("y", types.Int64))
	sum := func() expr.Expr { return expr.NewCall("+", expr.CInt(20), expr.CInt(22)) }
	join := &plan.Join{Kind: plan.JoinInner, Left: l, Right: r,
		On: expr.NewCall("=", expr.Col(1, "y", types.Int64), sum())}
	sel := &plan.Select{Child: join, Pred: expr.NewCall(">", expr.Col(0, "x", types.Int64), sum())}
	proj := &plan.Project{Child: sel, Exprs: []expr.Expr{sum(), expr.Col(1, "y", types.Int64)}, Names: []string{"c", "y"}}
	out := foldConstants(proj)
	want := "Project(42, y)\n  Select((x > 42))\n    Join(inner on (y = 42))\n"
	if got := plan.Format(out); !strings.HasPrefix(got, want) {
		t.Fatalf("folded plan:\n%swant it to start with:\n%s", got, want)
	}
	// Range extraction sees the folded literal.
	s := mkScan("t", -1, types.Col("k", types.Int64))
	got := findScan(New(nil).Optimize(&plan.Select{Child: s, Pred: expr.NewCall("<=", expr.Col(0, "k", types.Int64), sum())}))
	if len(got.Spec.Ranges) != 1 || got.Spec.Ranges[0].Hi == nil || got.Spec.Ranges[0].Hi.I64 != 42 {
		t.Fatalf("range over a folded bound: %v", got.Spec.Ranges)
	}
}
