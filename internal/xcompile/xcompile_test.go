package xcompile

import (
	"strings"
	"testing"

	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/physical"
	"vectorwise/internal/plan"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

func scan2() *plan.Scan {
	return &plan.Scan{Key: -1, Spec: &scanspec.Spec{Table: "t", Structure: "vectorwise",
		Cols: types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.Int64))}}
}

func TestCompileChain(t *testing.T) {
	p := &plan.Limit{
		Child: &plan.Sort{
			Child: &plan.Project{
				Child: &plan.Select{Child: scan2(),
					Pred: expr.NewCall(">", expr.Col(0, "a", types.Int64), expr.CInt(1))},
				Exprs: []expr.Expr{expr.Col(0, "a", types.Int64)},
				Names: []string{"a"},
			},
			Keys: []plan.SortKey{{Col: 0, Desc: true}},
		},
		Offset: 0, N: 10,
	}
	alg, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Sort+Limit fuses into TopN.
	if _, ok := alg.(*physical.TopN); !ok {
		t.Fatalf("expected TopN, got %T", alg)
	}
	f := physical.Format(alg)
	for _, want := range []string{"TopN", "Project", "Select", "Scan('t'"} {
		if !strings.Contains(f, want) {
			t.Fatalf("missing %s:\n%s", want, f)
		}
	}
}

func TestCompileJoinKeyExtraction(t *testing.T) {
	l, r := scan2(), scan2()
	on := expr.NewCall("and",
		expr.NewCall("=", expr.Col(0, "a", types.Int64), expr.Col(2, "a", types.Int64)),
		expr.NewCall(">", expr.Col(1, "b", types.Int64), expr.Col(3, "b", types.Int64)))
	j := &plan.Join{Kind: plan.JoinInner, Left: l, Right: r, On: on}
	alg, err := Compile(j)
	if err != nil {
		t.Fatal(err)
	}
	// Residual > predicate becomes a Select above the hash join.
	sel, ok := alg.(*physical.Select)
	if !ok {
		t.Fatalf("expected residual Select, got %T", alg)
	}
	hj, ok := sel.Child.(*physical.HashJoin)
	if !ok || len(hj.LeftKeys) != 1 || hj.LeftKeys[0] != 0 || hj.RightKeys[0] != 0 {
		t.Fatalf("keys: %+v", hj)
	}
}

func TestCompileJoinReversedEquality(t *testing.T) {
	l, r := scan2(), scan2()
	on := expr.NewCall("=", expr.Col(3, "b", types.Int64), expr.Col(1, "b", types.Int64))
	j := &plan.Join{Kind: plan.JoinInner, Left: l, Right: r, On: on}
	alg, err := Compile(j)
	if err != nil {
		t.Fatal(err)
	}
	hj := alg.(*physical.HashJoin)
	if hj.LeftKeys[0] != 1 || hj.RightKeys[0] != 1 {
		t.Fatalf("reversed keys: %+v", hj)
	}
}

func TestCompileCrossJoin(t *testing.T) {
	j := &plan.Join{Kind: plan.JoinCross, Left: scan2(), Right: scan2()}
	alg, err := Compile(j)
	if err != nil {
		t.Fatal(err)
	}
	// Cross joins compile to a constant-key hash join wrapped in a
	// projection that hides the helpers.
	if alg.Schema().Len() != 4 {
		t.Fatalf("cross join schema: %s", alg.Schema())
	}
}

func TestCompileSemiWithoutKeysFails(t *testing.T) {
	j := &plan.Join{Kind: plan.JoinSemi, Left: scan2(), Right: scan2(),
		On: expr.NewCall(">", expr.Col(0, "a", types.Int64), expr.Col(2, "a", types.Int64))}
	if _, err := Compile(j); err == nil {
		t.Fatal("semi join without equality keys accepted")
	}
}

func TestCompileAggrAndValues(t *testing.T) {
	agg := &plan.Aggregate{Child: scan2(), GroupCols: []int{0},
		Aggs: []plan.AggItem{{Fn: "sum", Col: 1}}, Names: []string{"a", "s"}}
	alg, err := Compile(agg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := alg.(*physical.HashAgg); !ok {
		t.Fatalf("expected HashAgg, got %T", alg)
	}
	v := &plan.Values{Rows: [][]types.Value{{types.NewInt64(1)}},
		Cols: types.NewSchema(types.Col("x", types.Int64))}
	alg2, err := Compile(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := alg2.(*physical.Values); !ok {
		t.Fatalf("expected Values, got %T", alg2)
	}
}

// An inner join with no equality joins on a constant key, as a cross join
// does, under the ON condition as a Select.
func TestCompileInnerJoinWithoutKeys(t *testing.T) {
	j := &plan.Join{Kind: plan.JoinInner, Left: scan2(), Right: scan2(),
		On: expr.NewCall("<", expr.Col(0, "a", types.Int64), expr.Col(2, "a", types.Int64))}
	n, err := Compile(j)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := n.(*physical.Select)
	if !ok || sel.Pred.String() != "(a < a)" {
		t.Fatalf("expected the condition as a Select, got:\n%s", physical.Format(n))
	}
	if sel.Schema().Len() != 4 || !strings.Contains(physical.Format(n), "HashJoin[inner](lk=[2], rk=[2])") {
		t.Fatalf("not a constant-key join:\n%s", physical.Format(n))
	}
}

// On a left join, a conjunct over right-side columns only filters the right
// input (renumbered onto it); one that reads the left side is rejected.
func TestCompileLeftJoinRightOnlyConjunct(t *testing.T) {
	eq := expr.NewCall("=", expr.Col(0, "a", types.Int64), expr.Col(2, "a", types.Int64))
	right := expr.NewCall(">", expr.Col(3, "b", types.Int64), expr.CInt(0))
	j := &plan.Join{Kind: plan.JoinLeft, Left: scan2(), Right: scan2(), On: expr.NewCall("and", eq, right)}
	n, err := Compile(j)
	if err != nil {
		t.Fatal(err)
	}
	hj, ok := n.(*physical.HashJoin)
	if !ok || hj.Type != exec.LeftOuter {
		t.Fatalf("expected a left outer HashJoin, got:\n%s", physical.Format(n))
	}
	sel, ok := hj.Right.(*physical.Select)
	if !ok || expr.Cols(sel.Pred)[0] != 1 {
		t.Fatalf("right conjunct not pushed onto the right input:\n%s", physical.Format(n))
	}
	j.On = expr.NewCall("and", eq, expr.NewCall(">", expr.Col(1, "b", types.Int64), expr.CInt(0)))
	if _, err := Compile(j); err == nil {
		t.Fatal("left-side conjunct on a left join accepted")
	}
}
