package algebra

import (
	"strings"
	"testing"

	"vectorwise/internal/expr"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

func testScan() *Scan {
	cols := types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.Float64))
	return &Scan{Spec: &scanspec.Spec{Table: "t", Structure: "vectorwise", Cols: cols}, Out: cols}
}

func TestSchemaPropagation(t *testing.T) {
	s := testScan()
	sel := &Select{Child: s, Pred: expr.NewCall(">", expr.Col(0, "a", types.Int64), expr.CInt(1))}
	if sel.Schema().Len() != 2 {
		t.Fatal("select schema")
	}
	proj := &Project{Child: sel,
		Exprs: []expr.Expr{expr.NewCall("*", expr.Col(1, "b", types.Float64), expr.CFloat(2))},
		Names: []string{"bb"}}
	ps := proj.Schema()
	if ps.Len() != 1 || ps.Cols[0].Name != "bb" || ps.Cols[0].Type.Kind != types.KindFloat64 {
		t.Fatalf("project schema: %s", ps)
	}
	agg := &Aggr{Child: proj, GroupCols: nil,
		Aggs:  []AggItem{{Fn: "count", Col: -1}, {Fn: "sum", Col: 0}, {Fn: "avg", Col: 0}},
		Names: []string{"c", "s", "a"}}
	as := agg.Schema()
	if as.Cols[0].Type.Kind != types.KindInt64 || as.Cols[1].Type.Kind != types.KindFloat64 ||
		as.Cols[2].Type.Kind != types.KindFloat64 {
		t.Fatalf("aggr schema: %s", as)
	}
}

func TestJoinSchemas(t *testing.T) {
	l, r := testScan(), testScan()
	inner := &HashJoin{Left: l, Right: r, Kind: Inner, LeftKeys: []int{0}, RightKeys: []int{0}}
	if inner.Schema().Len() != 4 {
		t.Fatal("inner schema")
	}
	semi := &HashJoin{Left: l, Right: r, Kind: Semi, LeftKeys: []int{0}, RightKeys: []int{0}}
	if semi.Schema().Len() != 2 {
		t.Fatal("semi schema")
	}
	lo := &HashJoin{Left: l, Right: r, Kind: LeftOuter, LeftKeys: []int{0}, RightKeys: []int{0}}
	s := lo.Schema()
	if s.Len() != 4 || !s.Cols[2].Type.Nullable {
		t.Fatalf("leftouter schema: %s", s)
	}
	lo.WithMatch = true
	s = lo.Schema()
	if s.Len() != 5 || s.Cols[4].Name != "$match" || s.Cols[2].Type.Nullable {
		t.Fatalf("leftouter+match schema: %s", s)
	}
}

func TestFormatAndWalk(t *testing.T) {
	s := testScan()
	plan := &Limit{Child: &Sort{Child: s, Keys: []SortKey{{Col: 0, Desc: true}}}, N: 5}
	f := Format(plan)
	for _, want := range []string{"Limit(0, 5)", "Sort(", "Scan('t', [a, b])"} {
		if !strings.Contains(f, want) {
			t.Fatalf("format missing %q:\n%s", want, f)
		}
	}
	count := 0
	Walk(plan, func(Node) bool { count++; return true })
	if count != 3 {
		t.Fatalf("walk visited %d", count)
	}
	// Morsel-worker scan renders its slot.
	ps := testScan()
	ps.Worker, ps.Morsels = 2, 4
	if !strings.Contains(ps.Line(), "morsel worker 2/4") {
		t.Fatalf("scan line: %s", ps.Line())
	}
}

func TestWithChildrenRebuild(t *testing.T) {
	s := testScan()
	sel := &Select{Child: s, Pred: expr.CBool(true)}
	s2 := testScan()
	rebuilt := sel.WithChildren([]Node{s2}).(*Select)
	if rebuilt.Child != s2 || rebuilt.Pred != sel.Pred {
		t.Fatal("WithChildren broken")
	}
	u := &UnionAll{Kids: []Node{s, s2}}
	if u.WithChildren([]Node{s2, s}).(*UnionAll).Kids[0] != s2 {
		t.Fatal("union WithChildren")
	}
}
