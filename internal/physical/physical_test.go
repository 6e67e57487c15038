package physical

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/rowengine"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// fixtureCatalog serves one table description.
type fixtureCatalog struct {
	name string
	info *TableInfo
}

func (c *fixtureCatalog) PhysicalTable(name string) (*TableInfo, error) {
	if name != c.name {
		return nil, fmt.Errorf("no table %q", name)
	}
	return c.info, nil
}

// fixtureEnv serves one heap table; vectorwise scans are not wired.
type fixtureEnv struct {
	heap *rowengine.HeapTable
}

func (e *fixtureEnv) Heap(string) (*rowengine.HeapTable, error) {
	if e.heap == nil {
		return nil, fmt.Errorf("no heap table")
	}
	return e.heap, nil
}

func (e *fixtureEnv) MorselSource(string, []int, int, int, []colstore.RangeFilter) (exec.MorselSource, error) {
	return nil, fmt.Errorf("no column store in fixture")
}

func intSchema(names ...string) *types.Schema {
	s := &types.Schema{}
	for _, n := range names {
		s.Cols = append(s.Cols, types.Col(n, types.Int64))
	}
	return s
}

// scanNode is an unresolved scan of the named BIGINT columns.
func scanNode(table, structure string, cols ...string) *Scan {
	s := intSchema(cols...)
	return &Scan{ScanCols{Spec: &scanspec.Spec{Table: table, Structure: structure, Cols: s}, Out: s}}
}

func valuesNode(rows ...int64) *Values {
	out := make([][]types.Value, len(rows))
	for i, v := range rows {
		out[i] = []types.Value{types.NewInt64(v)}
	}
	return &Values{Rows: out, Out: intSchema("x")}
}

func collect(t *testing.T, inst *Instance, profile bool) [][]types.Value {
	t.Helper()
	ctx := exec.NewCtx(context.Background())
	ctx.Profile = profile
	rows, err := exec.Collect(ctx, inst.Root)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return rows
}

// Build passes a Values→Select→Project→HashAgg chain through; it
// instantiates and runs.
func TestBuildInstantiateAndRunPipeline(t *testing.T) {
	col := expr.Col(0, "x", types.Int64)
	alg := &HashAgg{
		Child: &Project{
			Child: &Select{
				Child: valuesNode(1, 2, 3, 4, 5),
				Pred:  expr.NewCall(">", col, expr.CInt(1)),
			},
			Exprs: []expr.Expr{expr.NewCall("*", col, expr.CInt(2))},
			Names: []string{"y"},
		},
		GroupCols: nil,
		Aggs:      []exec.AggSpec{{Fn: exec.AggSum, Col: 0}, {Fn: exec.AggCount, Col: -1}},
		Names:     []string{"s", "c"},
	}
	n, err := Build(alg, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	agg, ok := n.(*HashAgg)
	if !ok {
		t.Fatalf("root is %T, want *HashAgg", n)
	}
	if got := Kinds(agg); len(got) != 2 || got[0] != types.KindInt64 || got[1] != types.KindInt64 {
		t.Fatalf("agg kinds = %v", got)
	}
	inst, err := Instantiate(n, &fixtureEnv{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	rows := collect(t, inst, false)
	// 2+3+4+5 doubled = 28, over 4 qualifying rows.
	if len(rows) != 1 || rows[0][0].Int64() != 28 || rows[0][1].Int64() != 4 {
		t.Fatalf("rows = %v", rows)
	}
}

// Scans resolve column names to storage positions at build time.
func TestBuildResolvesScanColumns(t *testing.T) {
	phys := intSchema("a", "b", "c")
	cat := &fixtureCatalog{name: "t", info: &TableInfo{
		Structure: "vectorwise", Logical: phys, Physical: phys}}
	n, err := Build(scanNode("t", "vectorwise", "c", "a"), cat)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s, ok := n.(*Scan)
	if !ok {
		t.Fatalf("node is %T, want *Scan", n)
	}
	if s.ColIdxs[0] != 2 || s.ColIdxs[1] != 0 {
		t.Fatalf("resolved idxs = %v", s.ColIdxs)
	}
	if got, want := s.Line(), "Scan('t', [c a] @ [2 0])"; got != want {
		t.Fatalf("scan line %q, want %q", got, want)
	}
	// ParallelScan workers resolve too, and keep sharing their queue.
	q := &ScanQueue{ID: 7, Workers: 2}
	mk := func(w int) *ParallelScan {
		return &ParallelScan{ScanCols: scanNode("t", "vectorwise", "a").ScanCols, Queue: q, Worker: w}
	}
	par, err := Build(&Xchg{Kids: []Node{mk(0), mk(1)}}, cat)
	if err != nil {
		t.Fatalf("build parallel: %v", err)
	}
	kids := par.Children()
	w0, ok0 := kids[0].(*ParallelScan)
	w1, ok1 := kids[1].(*ParallelScan)
	if !ok0 || !ok1 {
		t.Fatalf("workers are %T/%T, want *ParallelScan", kids[0], kids[1])
	}
	if w0.Queue != q || w1.Queue != q {
		t.Fatalf("workers do not share one queue spec: %+v vs %+v", w0.Queue, w1.Queue)
	}
	if w0.Worker != 0 || w1.Worker != 1 {
		t.Fatalf("worker slots = %d/%d", w0.Worker, w1.Worker)
	}
	if got, want := w1.Line(), "ParallelScan('t', [a] @ [0], worker 1/2, queue=7)"; got != want {
		t.Fatalf("worker line %q, want %q", got, want)
	}
	if _, err := Build(scanNode("t", "vectorwise", "zap"), cat); err == nil {
		t.Fatal("unknown column should fail at build time")
	}
	if _, err := Build(scanNode("nope", "vectorwise", "a"), cat); err == nil {
		t.Fatal("unknown table should fail at build time")
	}
}

// A scan holds its spec by pointer: ranges (positions in the pruned column
// list) resolve to storage-column filters on demand, the window is read from
// the spec for display, and a range outside the list is a build error.
func TestScanFiltersDeriveFromSpec(t *testing.T) {
	phys := intSchema("a", "b", "c", "d")
	cat := &fixtureCatalog{name: "t", info: &TableInfo{
		Structure: "vectorwise", Logical: phys, Physical: phys}}
	alg := scanNode("t", "vectorwise", "b", "d")
	lo, hi := types.NewInt64(5), types.NewInt64(9)
	alg.Spec.Ranges = []scanspec.Range{{Col: 1, Lo: &lo, Hi: &hi}, {Col: 0}}
	alg.Spec.Window = &scanspec.Window{Lo: 2, Hi: 3, Total: 8}
	n, err := Build(alg, cat)
	if err != nil {
		t.Fatal(err)
	}
	s := n.(*Scan)
	if s.Spec != alg.Spec {
		t.Fatal("physical scan copied the spec")
	}
	f := s.Filters()
	if len(f) != 1 || f[0].Col != 3 || f[0].Lo.Int64() != 5 || f[0].Hi.Int64() != 9 {
		t.Fatalf("filters = %+v, want one on storage column 3", f)
	}
	if got, want := s.Line(), "Scan('t', [b d] @ [1 3], filters=[col3 in [5,9]], groups=[2,3)/8)"; got != want {
		t.Fatalf("scan line %q, want %q", got, want)
	}
	alg.Spec.Ranges = []scanspec.Range{{Col: 2, Lo: &lo}}
	if _, err := Build(alg, cat); err == nil {
		t.Fatal("a range beyond the scan's column list should fail at build time")
	}
}

// The scan of a heap table resolves to a HeapScan, which runs through the
// row adapter.
func TestHeapScanThroughRegistry(t *testing.T) {
	schema := intSchema("k", "v")
	heap := rowengine.NewHeapTable(schema, 0)
	for i := int64(1); i <= 3; i++ {
		if _, err := heap.Insert([]types.Value{types.NewInt64(i), types.NewInt64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	cat := &fixtureCatalog{name: "h", info: &TableInfo{
		Structure: "heap", Logical: schema, Physical: schema}}
	n, err := Build(scanNode("h", "heap", "v"), cat)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, ok := n.(*HeapScan); !ok {
		t.Fatalf("node is %T, want *HeapScan", n)
	}
	inst, err := Instantiate(n, &fixtureEnv{heap: heap})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	rows := collect(t, inst, false)
	if len(rows) != 3 || rows[0][0].Int64() != 10 || rows[2][0].Int64() != 30 {
		t.Fatalf("heap rows = %v", rows)
	}
}

// An exchange's degree is its fan-in; Format renders it.
func TestXchgParallelismAndFormat(t *testing.T) {
	n, err := Build(&Xchg{Kids: []Node{valuesNode(1), valuesNode(2)}}, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	text := Format(n)
	for _, want := range []string{"Xchg(degree=2)", "Values(1 rows)", ":: [BIGINT]"} {
		if !strings.Contains(text, want) {
			t.Fatalf("format missing %q:\n%s", want, text)
		}
	}
	inst, err := Instantiate(n, &fixtureEnv{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if rows := collect(t, inst, false); len(rows) != 2 {
		t.Fatalf("xchg rows = %v", rows)
	}
}

// Profiling shells record per-operator counters uniformly.
func TestRegistryAndProfile(t *testing.T) {
	n, err := Build(&Select{Child: valuesNode(1, 2, 3),
		Pred: expr.NewCall(">", expr.Col(0, "x", types.Int64), expr.CInt(0))}, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	inst, err := Instantiate(n, &fixtureEnv{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if rows := collect(t, inst, true); len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if st := inst.Stats(n); st.Rows != 3 || st.Batches < 1 {
		t.Fatalf("root stats = %+v", st)
	}
	prof := inst.RenderProfile()
	if !strings.Contains(prof, "rows=3") || !strings.Contains(prof, "Select(") {
		t.Fatalf("profile rendering:\n%s", prof)
	}
}

// ridEnv serves one column-store table, each row group a morsel.
type ridEnv struct {
	fixtureEnv
	tab *colstore.Table
}

func (e *ridEnv) MorselSource(_ string, cols []int, vecSize, _ int, f []colstore.RangeFilter) (exec.MorselSource, error) {
	return tableMorsels{e.tab, cols, vecSize, f}, nil
}

type tableMorsels struct {
	tab     *colstore.Table
	cols    []int
	vecSize int
	filters []colstore.RangeFilter
}

func (s tableMorsels) NumMorsels() int { return s.tab.NumBlocks() }

func (s tableMorsels) Worker() (exec.MorselScanner, error) {
	return s.tab.NewMorselScanner(s.cols, s.vecSize, s.filters...)
}

// A RID scan resolves only its stored columns against the catalog, reports
// the row-id column in its kinds and on its line, and runs as a one-worker
// morsel scan that appends positions — or, on a heap table, as a HeapScan
// that appends packed RowIDs; morsel workers cannot project row ids.
func TestRIDScanBuildsAndRuns(t *testing.T) {
	phys := intSchema("a", "b", "c")
	cat := &fixtureCatalog{name: "t", info: &TableInfo{
		Structure: "vectorwise", Logical: phys, Physical: phys}}
	ridScan := func(table, structure string) *Scan {
		s := scanNode(table, structure, "c", "a")
		s.Spec.RID = true
		s.Out = s.Spec.Schema()
		return s
	}
	n, err := Build(ridScan("t", "vectorwise"), cat)
	if err != nil {
		t.Fatal(err)
	}
	s := n.(*Scan)
	if got, want := s.Line(), "Scan('t', [c a] @ [2 0], +$rid)"; got != want {
		t.Fatalf("scan line %q, want %q", got, want)
	}
	if k := Kinds(s); len(k) != 3 || len(s.ColIdxs) != 2 || k[2] != types.KindInt64 {
		t.Fatalf("kinds %v over storage positions %v", k, s.ColIdxs)
	}

	tab := colstore.NewTable(phys)
	ap := tab.NewAppender()
	for i := int64(0); i < 5; i++ {
		if err := ap.AppendRow([]types.Value{types.NewInt64(i), types.NewInt64(i * 10), types.NewInt64(i * 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	inst, err := Instantiate(n, &ridEnv{tab: tab})
	if err != nil {
		t.Fatal(err)
	}
	if ms, ok := inst.Root.(*exec.Profiled).Child.(*exec.MorselScan); !ok || ms.Workers != 1 {
		t.Fatalf("serial scan runs as %T, want a one-worker *exec.MorselScan", inst.Root.(*exec.Profiled).Child)
	}
	rows := collect(t, inst, false)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].Int64() != int64(i)*100 || r[1].Int64() != int64(i) || r[2].Int64() != int64(i) {
			t.Fatalf("row %d = %v, want (c, a, position)", i, r)
		}
	}

	// On a heap table the row id is the row's packed RowID.
	heap := rowengine.NewHeapTable(phys, -1)
	var rids []rowengine.RowID
	for i := int64(0); i < 3; i++ {
		rid, err := heap.Insert([]types.Value{types.NewInt64(i), types.NewInt64(i * 10), types.NewInt64(i * 100)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	heapCat := &fixtureCatalog{name: "h", info: &TableInfo{Structure: "heap", Logical: phys, Physical: phys}}
	n, err = Build(ridScan("h", "heap"), heapCat)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.Line(), "HeapScan('h', [c a] @ [2 0], +$rid)"; got != want {
		t.Fatalf("heap scan line %q, want %q", got, want)
	}
	if inst, err = Instantiate(n, &fixtureEnv{heap: heap}); err != nil {
		t.Fatal(err)
	}
	rows = collect(t, inst, false)
	for i, r := range rows {
		if r[0].Int64() != int64(i)*100 || r[1].Int64() != int64(i) || rowengine.UnpackRowID(r[2].Int64()) != rids[i] {
			t.Fatalf("heap row %d = %v, want (c, a, %v packed)", i, r, rids[i])
		}
	}
	if len(rows) != 3 {
		t.Fatalf("%d heap rows", len(rows))
	}
	worker := &ParallelScan{ScanCols: ridScan("t", "vectorwise").ScanCols, Queue: &ScanQueue{Workers: 2}}
	if _, err := Build(worker, cat); err == nil {
		t.Error("a morsel worker cannot project positions")
	}
}

func testScan() *Scan {
	cols := types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.Float64))
	return &Scan{ScanCols{Spec: &scanspec.Spec{Table: "t", Structure: "vectorwise", Cols: cols}, Out: cols}}
}

// Schemas derive from the children: a Select keeps its input's, a Project
// types its expressions, a HashAgg types its aggregates.
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
	agg := &HashAgg{Child: proj, GroupCols: nil,
		Aggs:  []exec.AggSpec{{Fn: exec.AggCount, Col: -1}, {Fn: exec.AggSum, Col: 0}, {Fn: exec.AggAvg, Col: 0}},
		Names: []string{"c", "s", "a"}}
	as := agg.Schema()
	if as.Cols[0].Type.Kind != types.KindInt64 || as.Cols[1].Type.Kind != types.KindFloat64 ||
		as.Cols[2].Type.Kind != types.KindFloat64 {
		t.Fatalf("aggregate schema: %s", as)
	}
	if got := Kinds(agg); len(got) != 3 || got[0] != types.KindInt64 || got[2] != types.KindFloat64 {
		t.Fatalf("aggregate kinds: %v", got)
	}
}

// Semi joins emit the left columns; a left outer join makes the right ones
// NULLable until decomposition asks for the $match column instead.
func TestJoinSchemas(t *testing.T) {
	l, r := testScan(), testScan()
	inner := &HashJoin{Left: l, Right: r, Type: exec.Inner, LeftKeys: []int{0}, RightKeys: []int{0}}
	if inner.Schema().Len() != 4 {
		t.Fatal("inner schema")
	}
	semi := &HashJoin{Left: l, Right: r, Type: exec.Semi, LeftKeys: []int{0}, RightKeys: []int{0}}
	if semi.Schema().Len() != 2 {
		t.Fatal("semi schema")
	}
	lo := &HashJoin{Left: l, Right: r, Type: exec.LeftOuter, LeftKeys: []int{0}, RightKeys: []int{0}}
	s := lo.Schema()
	if s.Len() != 4 || !s.Cols[2].Type.Nullable {
		t.Fatalf("leftouter schema: %s", s)
	}
	lo.WithMatch = true
	s = lo.Schema()
	if s.Len() != 5 || s.Cols[4].Name != "$match" || s.Cols[2].Type.Nullable {
		t.Fatalf("leftouter+match schema: %s", s)
	}
	par := &ParallelHashJoin{Build: r, Probes: []Node{l, testScan()}, Type: exec.LeftOuter, WithMatch: true}
	if got := par.Schema(); got.String() != s.String() {
		t.Fatalf("parallel join schema %s, want the serial %s", got, s)
	}
}

// Format renders one indented line per node, each with its output kinds.
func TestFormatRendersEveryNode(t *testing.T) {
	s := testScan()
	plan := &Limit{Child: &Sort{Child: s, Keys: []exec.SortKey{{Col: 0, Desc: true}}}, N: 5}
	want := "Limit(0, 5) :: [BIGINT, DOUBLE]\n" +
		"  Sort($0 desc) :: [BIGINT, DOUBLE]\n" +
		"    Scan('t', [a b] @ []) :: [BIGINT, DOUBLE]\n"
	if got := Format(plan); got != want {
		t.Fatalf("format:\n%swant:\n%s", got, want)
	}
	// A morsel worker renders its slot and queue.
	ps := &ParallelScan{ScanCols: testScan().ScanCols, Queue: &ScanQueue{ID: 3, Workers: 4}, Worker: 2}
	if !strings.Contains(ps.Line(), "worker 2/4, queue=3") {
		t.Fatalf("scan line: %s", ps.Line())
	}
}

func TestWithChildrenRebuild(t *testing.T) {
	s := testScan()
	sel := &Select{Child: s, Pred: expr.CBool(true)}
	s2 := testScan()
	rebuilt := sel.WithChildren([]Node{s2}).(*Select)
	if rebuilt.Child != s2 || rebuilt.Pred != sel.Pred || sel.Child != s {
		t.Fatal("WithChildren broken")
	}
	x := &Xchg{Kids: []Node{s, s2}}
	if x.WithChildren([]Node{s2, s}).(*Xchg).Kids[0] != s2 || x.Kids[0] != s {
		t.Fatal("xchg WithChildren")
	}
	j := &ParallelHashJoin{Build: s, Probes: []Node{s2}}
	if pj := j.WithChildren([]Node{s2, s, s}).(*ParallelHashJoin); pj.Build != s2 || len(pj.Probes) != 2 || j.Build != s {
		t.Fatal("parallel join WithChildren")
	}
}

// Build checks every aggregate against its input's kind, and its indicator
// column against BOOLEAN.
func TestBuildRejectsAggregateOverWrongKind(t *testing.T) {
	strs := &Values{Out: types.NewSchema(types.Col("s", types.String))}
	for _, sp := range []exec.AggSpec{{Fn: exec.AggSum, Col: 0}, exec.AggSpec{Fn: exec.AggCount, Col: -1}.WithInd(0)} {
		agg := &HashAgg{Child: strs, Aggs: []exec.AggSpec{sp}, Names: []string{"x"}}
		if _, err := Build(agg, nil); err == nil {
			t.Errorf("%s over VARCHAR built", sp.Fn)
		}
	}
}
