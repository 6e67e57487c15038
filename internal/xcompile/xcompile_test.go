package xcompile

import (
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/expr"
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
	if _, ok := alg.(*algebra.TopN); !ok {
		t.Fatalf("expected TopN, got %T", alg)
	}
	f := algebra.Format(alg)
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
	sel, ok := alg.(*algebra.Select)
	if !ok {
		t.Fatalf("expected residual Select, got %T", alg)
	}
	hj, ok := sel.Child.(*algebra.HashJoin)
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
	hj := alg.(*algebra.HashJoin)
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
	if _, ok := alg.(*algebra.Aggr); !ok {
		t.Fatalf("expected Aggr, got %T", alg)
	}
	v := &plan.Values{Rows: [][]types.Value{{types.NewInt64(1)}},
		Cols: types.NewSchema(types.Col("x", types.Int64))}
	alg2, err := Compile(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := alg2.(*algebra.Values); !ok {
		t.Fatalf("expected Values, got %T", alg2)
	}
}
