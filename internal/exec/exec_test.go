package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"vectorwise/internal/expr"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// mkValues builds a Values operator from a schema description and rows.
func mkValues(schema *types.Schema, rows ...[]types.Value) *Values {
	return NewValues(schema, rows)
}

func intRows(vals ...int64) ([][]types.Value, *types.Schema) {
	rows := make([][]types.Value, len(vals))
	for i, v := range vals {
		rows[i] = []types.Value{types.NewInt64(v)}
	}
	return rows, types.NewSchema(types.Col("x", types.Int64))
}

// seqSource produces n rows of (i, i%mod, float(i)) for pipeline tests.
func seqSource(n int, mod int64) Operator {
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{
			types.NewInt64(int64(i)),
			types.NewInt64(int64(i) % mod),
			types.NewFloat64(float64(i) * 0.5),
		}
	}
	schema := types.NewSchema(
		types.Col("a", types.Int64),
		types.Col("b", types.Int64),
		types.Col("c", types.Float64),
	)
	return NewValues(schema, rows)
}

func collect(t *testing.T, op Operator) [][]types.Value {
	t.Helper()
	rows, err := Collect(NewCtx(context.Background()), op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestValuesRoundTrip(t *testing.T) {
	rows, schema := intRows(1, 2, 3)
	got := collect(t, mkValues(schema, rows...))
	if len(got) != 3 || got[2][0].Int64() != 3 {
		t.Fatalf("values: %v", got)
	}
}

func TestSelect(t *testing.T) {
	src := seqSource(1000, 10)
	pred := expr.NewCall(">", expr.Col(0, "a", types.Int64), expr.CInt(994))
	got := collect(t, NewSelect(src, pred))
	if len(got) != 5 || got[0][0].Int64() != 995 {
		t.Fatalf("select: %v", got)
	}
}

func TestSelectConjunction(t *testing.T) {
	src := seqSource(1000, 10)
	pred := expr.NewCall("and",
		expr.NewCall("=", expr.Col(1, "b", types.Int64), expr.CInt(3)),
		expr.NewCall("<", expr.Col(0, "a", types.Int64), expr.CInt(100)))
	got := collect(t, NewSelect(src, pred))
	if len(got) != 10 {
		t.Fatalf("conjunction rows: %d", len(got))
	}
	for _, r := range got {
		if r[0].Int64()%10 != 3 || r[0].Int64() >= 100 {
			t.Fatalf("bad row %v", r)
		}
	}
}

func TestProject(t *testing.T) {
	src := seqSource(100, 7)
	exprs := []expr.Expr{
		expr.NewCall("+", expr.Col(0, "a", types.Int64), expr.CInt(1000)),
		expr.Col(2, "c", types.Float64),
	}
	got := collect(t, NewProject(src, exprs))
	if len(got) != 100 || got[5][0].Int64() != 1005 || got[5][1].Float64() != 2.5 {
		t.Fatalf("project: %v", got[5])
	}
}

func TestProjectAfterSelect(t *testing.T) {
	src := seqSource(100, 7)
	sel := NewSelect(src, expr.NewCall("<", expr.Col(0, "a", types.Int64), expr.CInt(3)))
	proj := NewProject(sel, []expr.Expr{
		expr.NewCall("*", expr.Col(0, "a", types.Int64), expr.CInt(2)),
	})
	got := collect(t, proj)
	if len(got) != 3 || got[2][0].Int64() != 4 {
		t.Fatalf("project after select: %v", got)
	}
}

func TestLimitOffset(t *testing.T) {
	rows, schema := intRows(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	got := collect(t, NewLimit(mkValues(schema, rows...), 3, 4))
	if len(got) != 4 || got[0][0].Int64() != 3 || got[3][0].Int64() != 6 {
		t.Fatalf("limit/offset: %v", got)
	}
	// Limit crossing batch boundaries.
	src := seqSource(5000, 3)
	got2 := collect(t, NewLimit(src, 2040, 100))
	if len(got2) != 100 || got2[0][0].Int64() != 2040 {
		t.Fatalf("limit across batches: %d %v", len(got2), got2[0])
	}
}

func joinSides() (Operator, Operator) {
	orders := types.NewSchema(types.Col("okey", types.Int64), types.Col("cust", types.Int64))
	customers := types.NewSchema(types.Col("ckey", types.Int64), types.Col("name", types.String))
	ordRows := [][]types.Value{
		{types.NewInt64(1), types.NewInt64(10)},
		{types.NewInt64(2), types.NewInt64(20)},
		{types.NewInt64(3), types.NewInt64(10)},
		{types.NewInt64(4), types.NewInt64(99)}, // no customer
	}
	custRows := [][]types.Value{
		{types.NewInt64(10), types.NewString("alice")},
		{types.NewInt64(20), types.NewString("bob")},
		{types.NewInt64(30), types.NewString("carol")}, // no orders
	}
	return NewValues(orders, ordRows), NewValues(customers, custRows)
}

func TestHashJoinInner(t *testing.T) {
	probe, build := joinSides()
	j := NewHashJoin(probe, build, []int{1}, []int{0}, Inner)
	got := collect(t, j)
	if len(got) != 3 {
		t.Fatalf("inner join rows: %v", got)
	}
	names := map[int64]string{}
	for _, r := range got {
		names[r[0].Int64()] = r[3].Str
	}
	if names[1] != "alice" || names[2] != "bob" || names[3] != "alice" {
		t.Fatalf("inner join content: %v", names)
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	probe, build := joinSides()
	j := NewHashJoin(probe, build, []int{1}, []int{0}, LeftOuter)
	got := collect(t, j)
	if len(got) != 4 {
		t.Fatalf("left outer rows: %v", got)
	}
	for _, r := range got {
		matched := r[4].Bool()
		if r[0].Int64() == 4 {
			if matched || r[3].Str != "" {
				t.Fatalf("non-match row wrong: %v", r)
			}
		} else if !matched {
			t.Fatalf("match row flagged unmatched: %v", r)
		}
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	probe, build := joinSides()
	semi := collect(t, NewHashJoin(probe, build, []int{1}, []int{0}, Semi))
	if len(semi) != 3 {
		t.Fatalf("semi: %v", semi)
	}
	probe2, build2 := joinSides()
	anti := collect(t, NewHashJoin(probe2, build2, []int{1}, []int{0}, Anti))
	if len(anti) != 1 || anti[0][0].Int64() != 4 {
		t.Fatalf("anti: %v", anti)
	}
}

// NOT IN with NULLs: a NULL in the build side means *no* probe row
// qualifies; NULL probe keys never qualify (claim C10).
func TestHashJoinAntiNullAware(t *testing.T) {
	mk := func(vals []int64, nulls []bool) Operator {
		schema := types.NewSchema(types.Col("v", types.Int64), types.Col("v_null", types.Bool))
		rows := make([][]types.Value, len(vals))
		for i := range vals {
			rows[i] = []types.Value{types.NewInt64(vals[i]), types.NewBool(nulls[i])}
		}
		return NewValues(schema, rows)
	}
	// Case 1: build has a NULL → empty result.
	probe := mk([]int64{1, 2, 3}, []bool{false, false, false})
	build := mk([]int64{1, 0}, []bool{false, true})
	j := NewHashJoin(probe, build, []int{0}, []int{0}, AntiNullAware)
	j.LeftKeyNull, j.RightKeyNull = 1, 1
	if got := collect(t, j); len(got) != 0 {
		t.Fatalf("build NULL should empty NOT IN: %v", got)
	}
	// Case 2: no build NULLs → plain anti join minus NULL probe keys.
	probe = mk([]int64{1, 2, 0}, []bool{false, false, true})
	build = mk([]int64{1}, []bool{false})
	j = NewHashJoin(probe, build, []int{0}, []int{0}, AntiNullAware)
	j.LeftKeyNull, j.RightKeyNull = 1, 1
	got := collect(t, j)
	if len(got) != 1 || got[0][0].Int64() != 2 {
		t.Fatalf("null-aware anti: %v", got)
	}
	// Contrast: plain Anti would return the NULL probe row too.
	probe = mk([]int64{1, 2, 0}, []bool{false, false, true})
	build = mk([]int64{1}, []bool{false})
	plain := collect(t, NewHashJoin(probe, build, []int{0}, []int{0}, Anti))
	if len(plain) != 2 {
		t.Fatalf("plain anti: %v", plain)
	}
}

func TestHashJoinMultiKeyAndEmptyBuild(t *testing.T) {
	schema := types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.String))
	rows := [][]types.Value{
		{types.NewInt64(1), types.NewString("x")},
		{types.NewInt64(1), types.NewString("y")},
		{types.NewInt64(2), types.NewString("x")},
	}
	probe := NewValues(schema, rows)
	build := NewValues(schema, rows[:2])
	j := NewHashJoin(probe, build, []int{0, 1}, []int{0, 1}, Inner)
	got := collect(t, j)
	if len(got) != 2 {
		t.Fatalf("multi-key join: %v", got)
	}
	// Empty build side.
	probe2 := NewValues(schema, rows)
	empty := NewValues(schema, nil)
	inner := collect(t, NewHashJoin(probe2, empty, []int{0}, []int{0}, Inner))
	if len(inner) != 0 {
		t.Fatal("empty build inner join must be empty")
	}
	probe3 := NewValues(schema, rows)
	empty2 := NewValues(schema, nil)
	anti := collect(t, NewHashJoin(probe3, empty2, []int{0}, []int{0}, Anti))
	if len(anti) != 3 {
		t.Fatal("anti join against empty build keeps all rows")
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	schema := types.NewSchema(types.Col("k", types.Int64))
	probe := NewValues(schema, [][]types.Value{{types.NewInt64(7)}})
	build := NewValues(schema, [][]types.Value{{types.NewInt64(7)}, {types.NewInt64(7)}})
	got := collect(t, NewHashJoin(probe, build, []int{0}, []int{0}, Inner))
	if len(got) != 2 {
		t.Fatalf("duplicate build keys: %v", got)
	}
}

func TestHashAggGrouped(t *testing.T) {
	src := seqSource(1000, 4) // groups 0..3, 250 rows each
	agg, err := NewHashAgg(src, []int{1}, []AggSpec{
		{Fn: AggCount, Col: -1},
		{Fn: AggSum, Col: 0},
		{Fn: AggMin, Col: 0},
		{Fn: AggMax, Col: 0},
		{Fn: AggAvg, Col: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, agg)
	if len(got) != 4 {
		t.Fatalf("groups: %v", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i][0].Int64() < got[j][0].Int64() })
	for g := int64(0); g < 4; g++ {
		r := got[g]
		if r[1].Int64() != 250 {
			t.Fatalf("count g%d: %v", g, r)
		}
		// sum of arithmetic sequence g, g+4, ..., g+996.
		wantSum := 250*g + 4*(249*250/2)
		if r[2].Int64() != wantSum {
			t.Fatalf("sum g%d: %d want %d", g, r[2].Int64(), wantSum)
		}
		if r[3].Int64() != g || r[4].Int64() != g+996 {
			t.Fatalf("min/max g%d: %v", g, r)
		}
		wantAvg := (float64(g) + float64(g+996)) / 2 * 0.5
		if r[5].Float64() != wantAvg {
			t.Fatalf("avg g%d: %v want %v", g, r[5].Float64(), wantAvg)
		}
	}
}

func TestHashAggScalar(t *testing.T) {
	src := seqSource(100, 3)
	agg, _ := NewHashAgg(src, nil, []AggSpec{
		{Fn: AggCount, Col: -1},
		{Fn: AggSum, Col: 0},
	})
	got := collect(t, agg)
	if len(got) != 1 || got[0][0].Int64() != 100 || got[0][1].Int64() != 4950 {
		t.Fatalf("scalar agg: %v", got)
	}
	// Empty input still yields one row.
	empty := NewValues(types.NewSchema(types.Col("x", types.Int64)), nil)
	agg2, _ := NewHashAgg(empty, nil, []AggSpec{{Fn: AggCount, Col: -1}})
	got2 := collect(t, agg2)
	if len(got2) != 1 || got2[0][0].Int64() != 0 {
		t.Fatalf("empty scalar agg: %v", got2)
	}
}

func TestHashAggManyGroups(t *testing.T) {
	src := seqSource(20000, 5000) // forces rehash
	agg, _ := NewHashAgg(src, []int{1}, []AggSpec{{Fn: AggCount, Col: -1}})
	got := collect(t, agg)
	if len(got) != 5000 {
		t.Fatalf("many groups: %d", len(got))
	}
	for _, r := range got {
		if r[1].Int64() != 4 {
			t.Fatalf("group count: %v", r)
		}
	}
}

func TestHashAggStringKeys(t *testing.T) {
	schema := types.NewSchema(types.Col("k", types.String), types.Col("v", types.Int64))
	rows := [][]types.Value{
		{types.NewString("a"), types.NewInt64(1)},
		{types.NewString("b"), types.NewInt64(2)},
		{types.NewString("a"), types.NewInt64(3)},
	}
	agg, _ := NewHashAgg(NewValues(schema, rows), []int{0}, []AggSpec{
		{Fn: AggSum, Col: 1},
		{Fn: AggMax, Col: 0},
	})
	got := collect(t, agg)
	if len(got) != 2 {
		t.Fatalf("string groups: %v", got)
	}
	m := map[string]int64{}
	for _, r := range got {
		m[r[0].Str] = r[1].Int64()
		if r[2].Str != r[0].Str {
			t.Fatalf("max(string key) should echo key: %v", r)
		}
	}
	if m["a"] != 4 || m["b"] != 2 {
		t.Fatalf("string agg sums: %v", m)
	}
}

func TestSortAscDesc(t *testing.T) {
	rows, schema := intRows(3, 1, 4, 1, 5, 9, 2, 6)
	got := collect(t, NewSort(mkValues(schema, rows...), []SortKey{{Col: 0}}))
	want := []int64{1, 1, 2, 3, 4, 5, 6, 9}
	for i := range want {
		if got[i][0].Int64() != want[i] {
			t.Fatalf("sort asc: %v", got)
		}
	}
	rows2, _ := intRows(3, 1, 4)
	got2 := collect(t, NewSort(mkValues(schema, rows2...), []SortKey{{Col: 0, Desc: true}}))
	if got2[0][0].Int64() != 4 || got2[2][0].Int64() != 1 {
		t.Fatalf("sort desc: %v", got2)
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	schema := types.NewSchema(types.Col("k", types.Int64), types.Col("s", types.String))
	rows := [][]types.Value{
		{types.NewInt64(2), types.NewString("b")},
		{types.NewInt64(1), types.NewString("z")},
		{types.NewInt64(2), types.NewString("a")},
		{types.NewInt64(1), types.NewString("y")},
	}
	got := collect(t, NewSort(NewValues(schema, rows), []SortKey{{Col: 0}, {Col: 1, Desc: true}}))
	if got[0][1].Str != "z" || got[1][1].Str != "y" || got[2][1].Str != "b" || got[3][1].Str != "a" {
		t.Fatalf("multi-key sort: %v", got)
	}
}

func TestTopN(t *testing.T) {
	src := seqSource(10000, 7)
	top := NewTopN(src, []SortKey{{Col: 0, Desc: true}}, 5)
	got := collect(t, top)
	if len(got) != 5 {
		t.Fatalf("topn len: %v", got)
	}
	for i, want := range []int64{9999, 9998, 9997, 9996, 9995} {
		if got[i][0].Int64() != want {
			t.Fatalf("topn: %v", got)
		}
	}
	// TopN larger than input = full sort.
	rows, schema := intRows(3, 1, 2)
	got2 := collect(t, NewTopN(mkValues(schema, rows...), []SortKey{{Col: 0}}, 10))
	if len(got2) != 3 || got2[0][0].Int64() != 1 {
		t.Fatalf("topn small input: %v", got2)
	}
}

func TestTopNMatchesSortLimit(t *testing.T) {
	src1 := seqSource(5000, 13)
	src2 := seqSource(5000, 13)
	keys := []SortKey{{Col: 1}, {Col: 0, Desc: true}}
	topGot := collect(t, NewTopN(src1, keys, 50))
	sortGot := collect(t, NewLimit(NewSort(src2, keys), 0, 50))
	if len(topGot) != len(sortGot) {
		t.Fatalf("lengths differ: %d vs %d", len(topGot), len(sortGot))
	}
	for i := range topGot {
		if topGot[i][0].Int64() != sortGot[i][0].Int64() {
			t.Fatalf("row %d differs: %v vs %v", i, topGot[i], sortGot[i])
		}
	}
}

func TestXchgUnionParallel(t *testing.T) {
	var children []Operator
	for i := 0; i < 4; i++ {
		rows := make([][]types.Value, 100)
		for j := range rows {
			rows[j] = []types.Value{types.NewInt64(int64(i*100 + j))}
		}
		children = append(children, NewValues(types.NewSchema(types.Col("x", types.Int64)), rows))
	}
	got := collect(t, NewXchgUnion(children...))
	if len(got) != 400 {
		t.Fatalf("xchg union rows: %d", len(got))
	}
	seen := map[int64]bool{}
	for _, r := range got {
		seen[r[0].Int64()] = true
	}
	if len(seen) != 400 {
		t.Fatalf("xchg union distinct: %d", len(seen))
	}
}

func TestXchgUnionAggregate(t *testing.T) {
	// Parallel partial aggregation + final aggregation: the plan shape the
	// rewriter's parallelizer emits.
	var partials []Operator
	for i := 0; i < 4; i++ {
		src := seqSource(1000, 4)
		part, _ := NewHashAgg(src, []int{1}, []AggSpec{{Fn: AggCount, Col: -1}, {Fn: AggSum, Col: 0}})
		partials = append(partials, part)
	}
	final, _ := NewHashAgg(NewXchgUnion(partials...), []int{0}, []AggSpec{
		{Fn: AggSum, Col: 1}, {Fn: AggSum, Col: 2},
	})
	got := collect(t, final)
	if len(got) != 4 {
		t.Fatalf("final groups: %v", got)
	}
	for _, r := range got {
		if r[1].Int64() != 1000 { // 4 partials x 250
			t.Fatalf("final count: %v", r)
		}
	}
}

func TestCancellationStopsPipeline(t *testing.T) {
	// An infinite source: Values with a huge row count would allocate, so
	// use a custom operator.
	src := &infiniteSource{}
	agg, _ := NewHashAgg(src, nil, []AggSpec{{Fn: AggSum, Col: 0}})
	ctx, cancel := context.WithCancel(context.Background())
	ectx := NewCtx(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := Collect(ectx, agg)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("expected cancellation, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not stop the query")
	}
}

func TestCancellationStopsParallelPlan(t *testing.T) {
	var children []Operator
	for i := 0; i < 4; i++ {
		children = append(children, &infiniteSource{})
	}
	x := NewXchgUnion(children...)
	ctx, cancel := context.WithCancel(context.Background())
	ectx := NewCtx(ctx)
	done := make(chan error, 1)
	go func() {
		err := Run(ectx, x, func(*vec.Batch) error { return nil })
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parallel cancellation hung")
	}
}

// infiniteSource yields batches forever (until cancelled).
type infiniteSource struct {
	ctx *Ctx
	buf *vec.Batch
}

func (s *infiniteSource) Kinds() []types.Kind { return []types.Kind{types.KindInt64} }

func (s *infiniteSource) Open(ctx *Ctx) error {
	s.ctx = ctx
	s.buf = vec.NewBatch(s.Kinds(), ctx.vecSize())
	s.buf.SetLen(ctx.vecSize())
	return nil
}

func (s *infiniteSource) Next() (*vec.Batch, error) {
	if err := s.ctx.poll(); err != nil {
		return nil, err
	}
	return s.buf, nil
}

func (s *infiniteSource) Close() {}

func TestProfiledCounters(t *testing.T) {
	src := seqSource(1000, 4)
	p := NewProfiled("values", src)
	ctx := NewCtx(context.Background())
	ctx.Profile = true
	if _, err := Collect(ctx, p); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Rows != 1000 || st.Batches == 0 {
		t.Fatalf("profile stats: %+v", st)
	}
}

func TestErrorPropagation(t *testing.T) {
	// Division by zero inside a projection surfaces as a query error.
	src := seqSource(100, 4)
	proj := NewProject(src, []expr.Expr{
		expr.NewCall("/", expr.CInt(1), expr.Col(1, "b", types.Int64)),
	})
	_, err := Collect(NewCtx(context.Background()), proj)
	if err == nil {
		t.Fatal("expected division by zero")
	}
}

func TestVectorSizeSweepCorrectness(t *testing.T) {
	// The same query must give identical answers at any vector size (E2's
	// correctness precondition).
	for _, vs := range []int{1, 7, 64, 1024, 8192} {
		src := seqSource(3000, 11)
		sel := NewSelect(src, expr.NewCall(">", expr.Col(1, "b", types.Int64), expr.CInt(4)))
		agg, _ := NewHashAgg(sel, nil, []AggSpec{{Fn: AggCount, Col: -1}, {Fn: AggSum, Col: 0}})
		ctx := NewCtx(context.Background())
		ctx.VecSize = vs
		rows, err := Collect(ctx, agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatal("scalar agg shape")
		}
		if rows[0][0].Int64() != 1635 {
			t.Fatalf("vecsize %d: count=%v", vs, rows[0][0])
		}
	}
}

func TestJoinKindMismatchRejected(t *testing.T) {
	a := NewValues(types.NewSchema(types.Col("x", types.Int64)), nil)
	b := NewValues(types.NewSchema(types.Col("y", types.String)), nil)
	j := NewHashJoin(a, b, []int{0}, []int{0}, Inner)
	err := j.Open(NewCtx(context.Background()))
	if err == nil {
		t.Fatal("kind mismatch accepted")
	}
	j.Close()
	_ = fmt.Sprint(j)
}
