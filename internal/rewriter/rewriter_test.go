package rewriter

import (
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/physical"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

func scanNode(cols ...types.Column) *physical.Scan {
	s := types.NewSchema(cols...)
	return &physical.Scan{ScanCols: physical.ScanCols{Spec: &scanspec.Spec{Table: "t", Structure: "vectorwise", Cols: s}, Out: s}}
}

func TestPhysicalSchemaConvention(t *testing.T) {
	logical := types.NewSchema(
		types.Col("a", types.Int64),
		types.Col("b", types.Float64.Null()),
		types.Col("c", types.String.Null()),
	)
	phys := PhysicalSchema(logical)
	if phys.Len() != 5 {
		t.Fatalf("phys: %s", phys)
	}
	if phys.Cols[3].Name != "b$null" || phys.Cols[4].Name != "c$null" {
		t.Fatalf("indicator names: %s", phys)
	}
	for _, c := range phys.Cols {
		if c.Type.Nullable {
			t.Fatal("physical schema must be NULL-free")
		}
	}
	cm := PhysicalColMap(logical)
	if cm.Ind[0] != -1 || cm.Ind[1] != 3 || cm.Ind[2] != 4 {
		t.Fatalf("colmap: %+v", cm)
	}
}

func TestDecomposeSelectIsNull(t *testing.T) {
	scan := scanNode(types.Col("x", types.Int64.Null()))
	sel := &physical.Select{Child: scan, Pred: expr.NewCall("isnull",
		expr.Col(0, "x", types.Int64.Null()))}
	res, err := Rewrite(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The physical predicate must reference only the indicator column.
	f := physical.Format(res.Node)
	if !strings.Contains(f, "Select(x$null)") || !strings.Contains(f, "Scan('t', [x x$null] @ [])") {
		t.Fatalf("no indicator in plan:\n%s", f)
	}
	// Output schema NULL-free.
	for _, c := range res.Node.Schema().Cols {
		if c.Type.Nullable {
			t.Fatal("nullable output after decomposition")
		}
	}
}

func TestDecomposeProjectIndicators(t *testing.T) {
	scan := scanNode(types.Col("a", types.Int64.Null()), types.Col("b", types.Int64))
	proj := &physical.Project{
		Child: scan,
		Exprs: []expr.Expr{
			expr.NewCall("+", expr.Col(0, "a", types.Int64.Null()), expr.Col(1, "b", types.Int64)),
			expr.Col(1, "b", types.Int64),
		},
		Names: []string{"s", "b"},
	}
	res, err := Rewrite(proj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cm := res.ColMap
	if cm.Ind[0] < 0 {
		t.Fatal("nullable + nullable output lost its indicator")
	}
	if cm.Ind[1] != -1 {
		t.Fatal("non-nullable column gained an indicator")
	}
}

func TestThreeValuedLogicDecomposition(t *testing.T) {
	// NULL OR TRUE must be TRUE: decompose or(a, b) and check the
	// indicator expression is not a plain OR of indicators.
	scan := scanNode(types.Col("p", types.Bool.Null()), types.Col("q", types.Bool))
	sel := &physical.Select{Child: scan, Pred: expr.NewCall("or",
		expr.Col(0, "p", types.Bool.Null()), expr.Col(1, "q", types.Bool))}
	res, err := Rewrite(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The plan must keep rows where q is true even when p is NULL: the
	// predicate contains q as a known-true escape.
	f := physical.Format(res.Node)
	if !strings.Contains(f, "q") {
		t.Fatalf("decomposed OR lost operand:\n%s", f)
	}
}

func TestDecomposeAggrNullable(t *testing.T) {
	scan := scanNode(types.Col("g", types.Int64), types.Col("v", types.Float64.Null()))
	agg := &physical.HashAgg{
		Child:     scan,
		GroupCols: []int{0},
		Aggs: []exec.AggSpec{
			{Fn: exec.AggCount, Col: -1},
			{Fn: exec.AggCount, Col: 1},
			{Fn: exec.AggSum, Col: 1},
			{Fn: exec.AggAvg, Col: 1},
			{Fn: exec.AggMin, Col: 1},
		},
		Names: []string{"g", "cnt", "cntv", "sumv", "avgv", "minv"},
	}
	res, err := Rewrite(agg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cm := res.ColMap
	if cm.Ind[0] != -1 || cm.Ind[1] != -1 || cm.Ind[2] != -1 {
		t.Fatalf("count outputs must not be nullable: %+v", cm)
	}
	for _, i := range []int{3, 4, 5} {
		if cm.Ind[i] < 0 {
			t.Fatalf("nullable agg %d lost indicator: %+v", i, cm)
		}
	}
}

// MIN over a NULLable VARCHAR reads the value column and skips the rows
// its indicator marks, with no projection between the scan and the
// aggregate; the result is NULL where no row was folded.
func TestDecomposeMinNullableString(t *testing.T) {
	scan := scanNode(types.Col("s", types.String.Null()))
	agg := &physical.HashAgg{Child: scan, GroupCols: nil,
		Aggs: []exec.AggSpec{{Fn: exec.AggMin, Col: 0}}, Names: []string{"m"}}
	res, err := Rewrite(agg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "Project(m=$o0, m$null=($o1 = 0)) :: [VARCHAR, BOOLEAN]\n" +
		"  HashAgg(groups=[], [min($0 skip $1), count(* skip $1)]) :: [VARCHAR, BIGINT]\n" +
		"    Scan('t', [s s$null] @ []) :: [VARCHAR, BOOLEAN]\n"
	if got := physical.Format(res.Node); got != want {
		t.Fatalf("plan:\n%swant:\n%s", got, want)
	}
}

func TestDecomposeAntiNullJoin(t *testing.T) {
	left := scanNode(types.Col("x", types.Int64))
	right := scanNode(types.Col("y", types.Int64.Null()))
	j := &physical.HashJoin{Left: left, Right: right, Type: exec.AntiNullAware,
		LeftKeys: []int{0}, RightKeys: []int{0}, LeftKeyNull: -1, RightKeyNull: -1}
	res, err := Rewrite(j, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hj, ok := res.Node.(*physical.HashJoin)
	if !ok {
		t.Fatalf("top: %T", res.Node)
	}
	if hj.RightKeyNull < 0 {
		t.Fatal("null-aware anti join lost its indicator column")
	}
}

func TestParallelizeAggr(t *testing.T) {
	scan := scanNode(types.Col("g", types.Int64), types.Col("v", types.Float64))
	agg := &physical.HashAgg{Child: scan, GroupCols: []int{0},
		Aggs:  []exec.AggSpec{{Fn: exec.AggCount, Col: -1}, {Fn: exec.AggSum, Col: 1}, {Fn: exec.AggAvg, Col: 1}},
		Names: []string{"g", "c", "s", "a"}}
	res, err := Rewrite(agg, Options{Parallel: 4, GroupsHint: func(*scanspec.Spec) int { return 8 }})
	if err != nil {
		t.Fatal(err)
	}
	f := physical.Format(res.Node)
	if !strings.Contains(f, "Xchg(degree=4)") {
		t.Fatalf("no exchange:\n%s", f)
	}
	if !strings.Contains(f, "worker 0/4") || !strings.Contains(f, "worker 3/4") {
		t.Fatalf("scan not morsel-cloned:\n%s", f)
	}
	// Output schema arity preserved.
	if res.Node.Schema().Len() != agg.Schema().Len() {
		t.Fatalf("parallel plan changed schema: %s vs %s", res.Node.Schema(), agg.Schema())
	}
}

// A scan's spec travels by pointer: decomposition derives the physical list
// (values, then the indicators of the NULLable columns) from the spec's
// pruned schema, the columns no operator reads drop out of it (COUNT(a)
// reads a$null only; k stays for its range), ranges and window stay where
// they are, and the morsel clones differ only in their stamps.
func TestScanSpecSharedThroughDecomposeAndParallelize(t *testing.T) {
	scan := scanNode(types.Col("a", types.Int64.Null()), types.Col("k", types.Int64), types.Col("c", types.String.Null()))
	lo := types.NewInt64(3)
	scan.Spec.Ranges = []scanspec.Range{{Col: 1, Lo: &lo}}
	scan.Spec.Window = &scanspec.Window{Lo: 1, Hi: 4, Total: 6}
	var hinted *scanspec.Spec
	agg := &physical.HashAgg{Child: scan, Aggs: []exec.AggSpec{{Fn: exec.AggCount, Col: 0}}, Names: []string{"n"}}
	res, err := Rewrite(agg, Options{Parallel: 2, GroupsHint: func(s *scanspec.Spec) int { hinted = s; return 8 }})
	if err != nil {
		t.Fatal(err)
	}
	if hinted != scan.Spec {
		t.Fatal("GroupsHint did not receive the scan's own spec")
	}
	var workers []*physical.ParallelScan
	var walk func(n physical.Node)
	walk = func(n physical.Node) {
		if s, ok := n.(*physical.ParallelScan); ok {
			workers = append(workers, s)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(res.Node)
	if len(workers) != 2 {
		t.Fatalf("%d scans, want 2 morsel workers:\n%s", len(workers), physical.Format(res.Node))
	}
	for w, s := range workers {
		if s.Spec != scan.Spec {
			t.Fatalf("worker %d copied the spec", w)
		}
		if s.Queue != workers[0].Queue {
			t.Fatalf("worker %d has its own queue", w)
		}
		want := fmt.Sprintf("ParallelScan('t', [k a$null] @ [], worker %d/2, queue=0, ranges=[$1 in [3,+inf]], groups=[1,4)/6)", w)
		if s.Line() != want {
			t.Fatalf("worker %d line %q, want %q", w, s.Line(), want)
		}
	}
}

func TestParallelizeRespectsGroupsHint(t *testing.T) {
	scan := scanNode(types.Col("v", types.Int64))
	agg := &physical.HashAgg{Child: scan, Aggs: []exec.AggSpec{{Fn: exec.AggSum, Col: 0}}, Names: []string{"s"}}
	res, err := Rewrite(agg, Options{Parallel: 8, GroupsHint: func(*scanspec.Spec) int { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(physical.Format(res.Node), "Xchg") {
		t.Fatal("parallelized despite a groups hint of 1")
	}
}

func TestParallelizeSortAndTopN(t *testing.T) {
	mk := func() *physical.Sort {
		scan := scanNode(types.Col("v", types.Int64))
		return &physical.Sort{Child: scan, Keys: []exec.SortKey{{Col: 0}}}
	}
	res, err := Rewrite(mk(), Options{Parallel: 3, GroupsHint: func(*scanspec.Spec) int { return 8 }})
	if err != nil {
		t.Fatal(err)
	}
	f := physical.Format(res.Node)
	if !strings.Contains(f, "XchgMerge(degree=3") {
		t.Fatalf("sort not exchanged into a merge:\n%s", f)
	}
	if strings.Count(f, "Sort(") != 3 {
		t.Fatalf("want 3 local sorts:\n%s", f)
	}

	scan := scanNode(types.Col("v", types.Int64))
	topn := &physical.TopN{Child: scan, Keys: []exec.SortKey{{Col: 0, Desc: true}}, N: 5}
	res, err = Rewrite(topn, Options{Parallel: 2, GroupsHint: func(*scanspec.Spec) int { return 8 }})
	if err != nil {
		t.Fatal(err)
	}
	f = physical.Format(res.Node)
	if !strings.Contains(f, "Limit(0, 5)") || !strings.Contains(f, "XchgMerge(degree=2") ||
		strings.Count(f, "TopN(") != 2 {
		t.Fatalf("TopN not parallelized as Limit(XchgMerge(TopN…)):\n%s", f)
	}
}

func TestParallelizeHashJoinProbe(t *testing.T) {
	probe := scanNode(types.Col("x", types.Int64))
	build := scanNode(types.Col("y", types.Int64))
	j := &physical.HashJoin{Left: probe, Right: build, Type: exec.Inner,
		LeftKeys: []int{0}, RightKeys: []int{0}, LeftKeyNull: -1, RightKeyNull: -1}
	res, err := Rewrite(j, Options{Parallel: 4, GroupsHint: func(*scanspec.Spec) int { return 8 }})
	if err != nil {
		t.Fatal(err)
	}
	f := physical.Format(res.Node)
	if !strings.Contains(f, "ParallelHashJoin") || !strings.Contains(f, "degree=4") {
		t.Fatalf("probe side not parallelized:\n%s", f)
	}
	if !strings.Contains(f, "worker 3/4") {
		t.Fatalf("probe scans not morsel-cloned:\n%s", f)
	}
	// Build side stays a single serial scan; schema matches the serial join.
	if res.Node.Schema().Len() != j.Schema().Len() {
		t.Fatalf("parallel join changed schema: %s vs %s", res.Node.Schema(), j.Schema())
	}
}

// The position column of a RID scan is made by the scan operator, so NULL
// decomposition puts it after everything that is stored — indicators
// included — and maps the logical column there. Pruning never drops it
// (the unread k goes).
func TestDecomposeRIDScanTrailsIndicators(t *testing.T) {
	scan := scanNode(types.Col("k", types.Int64), types.Col("v", types.Float64.Null()))
	scan.Spec.RID = true
	scan.Out = scan.Spec.Schema()
	in := scan.Schema()
	proj := &physical.Project{Child: scan, Names: []string{"$rid", "v"},
		Exprs: []expr.Expr{expr.Col(2, in.Cols[2].Name, in.Cols[2].Type), expr.Col(1, "v", in.Cols[1].Type)}}
	res, err := Rewrite(proj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "Project($rid=$rid, v=v, v$null=v$null) :: [BIGINT, DOUBLE, BOOLEAN]\n" +
		"  Scan('t', [v v$null] @ [], +$rid) :: [DOUBLE, BOOLEAN, BIGINT]\n"
	if got := physical.Format(res.Node); got != want {
		t.Fatalf("rewritten:\n%swant:\n%s", got, want)
	}
	if got := res.Node.Children()[0].Schema().Names(); strings.Join(got, " ") != "v v$null $rid" {
		t.Fatalf("scan output %v, want [v v$null $rid]", got)
	}
	if res.ColMap.Val[0] != 0 || res.ColMap.Ind[0] != -1 || res.ColMap.Val[1] != 1 || res.ColMap.Ind[1] != 2 {
		t.Fatalf("output colmap: %+v", res.ColMap)
	}
}
