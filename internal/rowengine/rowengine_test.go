package rowengine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"vectorwise/internal/expr"
	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
)

func testTable(t *testing.T, rows int, keyCol int) *HeapTable {
	t.Helper()
	schema := types.NewSchema(
		types.Col("id", types.Int64),
		types.Col("grp", types.Int64),
		types.Col("name", types.String),
		types.Col("val", types.Float64),
	)
	tab := NewHeapTable(schema, keyCol)
	for i := 0; i < rows; i++ {
		_, err := tab.Insert([]types.Value{
			types.NewInt64(int64(i)),
			types.NewInt64(int64(i % 5)),
			types.NewString("name" + string(rune('A'+i%3))),
			types.NewFloat64(float64(i) * 1.5),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// find returns the RowID and row whose id is key (ok false when absent).
func find(t *testing.T, tab *HeapTable, key int64) (rid RowID, row []types.Value, ok bool) {
	t.Helper()
	err := tab.ScanFunc(func(r RowID, v []types.Value) bool {
		if v[0].Int64() == key {
			rid, row, ok = r, v, true
		}
		return !ok
	})
	if err != nil {
		t.Fatal(err)
	}
	return rid, row, ok
}

func row4(id, grp int64, name string, val float64) []types.Value {
	return []types.Value{types.NewInt64(id), types.NewInt64(grp), types.NewString(name), types.NewFloat64(val)}
}

func TestHeapInsertGetRoundTrip(t *testing.T) {
	tab := testTable(t, 1000, 0)
	if tab.Rows() != 1000 {
		t.Fatalf("rows: %d", tab.Rows())
	}
	_, row, ok := find(t, tab, 567)
	if !ok || row[0].Int64() != 567 || row[2].Str != "nameA" || row[3].Float64() != 850.5 {
		t.Fatalf("content: %v", row)
	}
	// Several pages were used for 1000 rows, and RowIDs survive packing.
	pages := map[int32]bool{}
	tab.ScanFunc(func(r RowID, _ []types.Value) bool {
		pages[r.Page] = true
		if UnpackRowID(r.Pack()) != r {
			t.Fatalf("%v packs to %d, unpacks to %v", r, r.Pack(), UnpackRowID(r.Pack()))
		}
		return true
	})
	if len(pages) < 2 {
		t.Fatalf("pages: %d", len(pages))
	}
	for _, r := range []RowID{{Page: 0, Slot: 0}, {Page: 1 << 30, Slot: -1}, {Page: -1, Slot: 1 << 30}} {
		if UnpackRowID(r.Pack()) != r {
			t.Fatalf("%v does not survive packing", r)
		}
	}
}

func TestHeapDuplicateKeyRejected(t *testing.T) {
	tab := testTable(t, 5, 0)
	_, err := tab.Insert([]types.Value{
		types.NewInt64(3), types.NewInt64(0), types.NewString(""), types.NewFloat64(0),
	})
	if err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestHeapDeleteUpdate(t *testing.T) {
	tab := testTable(t, 100, 0)
	rid, _, _ := find(t, tab, 50)
	if err := tab.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 99 {
		t.Fatalf("rows after delete: %d", tab.Rows())
	}
	if _, _, ok := find(t, tab, 50); ok {
		t.Fatal("deleted row still found")
	}
	if err := tab.Delete(rid); err != nil || tab.Rows() != 99 {
		t.Fatalf("double delete: %v, %d rows", err, tab.Rows())
	}
	// The deleted key is free again.
	if _, err := tab.Insert(row4(50, 0, "back", 0)); err != nil {
		t.Fatalf("re-insert of a deleted key: %v", err)
	}
	// In-place update (same size).
	rid, _, _ = find(t, tab, 10)
	if err := tab.UpdateRows([]RowID{rid}, [][]types.Value{row4(10, 9, "nameA", -1)}); err != nil {
		t.Fatal(err)
	}
	nrid, row, _ := find(t, tab, 10)
	if nrid != rid || row[1].Int64() != 9 || row[3].Float64() != -1 {
		t.Fatalf("update: %v at %v", row, nrid)
	}
	// Growing update forces relocation; the key stays indexed.
	if err := tab.UpdateRows([]RowID{rid}, [][]types.Value{row4(10, 9, "a much longer name than before", -1)}); err != nil {
		t.Fatal(err)
	}
	nrid, row, _ = find(t, tab, 10)
	if nrid == rid || row[2].Str != "a much longer name than before" || tab.Rows() != 100 {
		t.Fatalf("relocated update: %v at %v, %d rows", row, nrid, tab.Rows())
	}
	if _, err := tab.Insert(row4(10, 0, "dup", 0)); err == nil {
		t.Fatal("index lost after relocation")
	}
	if err := tab.UpdateRows([]RowID{rid}, [][]types.Value{row4(10, 9, "x", -1)}); err == nil {
		t.Fatal("update of a vacated slot accepted")
	}
}

// UpdateRows checks every new key and row before it changes anything: a key
// taken by a row it does not rewrite, two rows given one key, or a row too
// large for a page fail the whole call, whether the rows would be rewritten
// in place or moved. Keys may move between the rows it rewrites.
func TestHeapUpdateRowsAllOrNothing(t *testing.T) {
	tab := testTable(t, 5, 0)
	snapshot := func() string {
		var s []string
		tab.ScanFunc(func(r RowID, row []types.Value) bool {
			s = append(s, fmt.Sprint(r, row))
			return true
		})
		return strings.Join(s, "\n")
	}
	rid := func(key int64) RowID {
		r, _, _ := find(t, tab, key)
		return r
	}
	before := snapshot()
	for _, tc := range []struct {
		name string
		rids []RowID
		rows [][]types.Value
		want string
	}{
		{"key of a row not rewritten, in place", []RowID{rid(2)}, [][]types.Value{row4(1, 2, "nameC", 3)}, "duplicate key 1"},
		{"key of a row not rewritten, moved", []RowID{rid(1)}, [][]types.Value{row4(3, 1, "a longer name", 1.5)}, "duplicate key 3"},
		{"one key for two rows", []RowID{rid(1), rid(2)}, [][]types.Value{row4(7, 1, "nameB", 1.5), row4(7, 2, "nameC", 3)}, "duplicate key 7"},
		{"row too large", []RowID{rid(1), rid(2)}, [][]types.Value{row4(8, 1, "nameB", 1.5), row4(9, 2, strings.Repeat("x", PageSize), 3)}, "exceeds page size"},
		{"wrong arity", []RowID{rid(1)}, [][]types.Value{row4(8, 1, "nameB", 1.5)[:3]}, "arity"},
		{"one row twice", []RowID{rid(1), rid(1)}, [][]types.Value{row4(8, 1, "a longer name", 1.5), row4(9, 1, "nameB", 1.5)}, "twice"},
	} {
		err := tab.UpdateRows(tc.rids, tc.rows)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: %v, want an error naming %q", tc.name, err, tc.want)
		}
		if after := snapshot(); after != before {
			t.Fatalf("%s failed but changed the table:\n%s", tc.name, after)
		}
	}
	// Swapping two keys is fine: each is freed by the row that held it.
	if err := tab.UpdateRows([]RowID{rid(1), rid(2)}, [][]types.Value{row4(2, 1, "nameB", 1.5), row4(1, 2, "a longer name", 3)}); err != nil {
		t.Fatal(err)
	}
	if _, row, _ := find(t, tab, 1); row[2].Str != "a longer name" || tab.Rows() != 5 {
		t.Fatalf("after the swap key 1 holds %v (%d rows)", row, tab.Rows())
	}
	for _, k := range []int64{1, 2} {
		if _, err := tab.Insert(row4(k, 0, "dup", 0)); err == nil {
			t.Fatalf("key %d unindexed after the swap", k)
		}
	}
}

func TestNullRoundTrip(t *testing.T) {
	schema := types.NewSchema(types.Col("a", types.Int64.Null()), types.Col("b", types.String.Null()))
	tab := NewHeapTable(schema, -1)
	if _, err := tab.Insert([]types.Value{types.NewNull(types.KindInt64), types.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	var got []types.Value
	tab.ScanFunc(func(_ RowID, row []types.Value) bool { got = row; return false })
	if !got[0].Null || got[1].Str != "x" {
		t.Fatalf("null roundtrip: %v", got)
	}
}

func col(tab *HeapTable, i int) *expr.ColRef {
	c := tab.Schema().Cols[i]
	return expr.Col(i, c.Name, c.Type)
}

func TestVolcanoPipeline(t *testing.T) {
	tab := testTable(t, 1000, -1)
	scan := NewTableScan(tab)
	filt := NewFilter(scan, expr.NewCall("<", col(tab, 0), expr.CInt(10)))
	proj := NewMap(filt, []expr.Expr{
		expr.NewCall("*", col(tab, 0), expr.CInt(2)),
		col(tab, 2),
	}, []string{"double", "name"})
	rows, err := CollectRows(context.Background(), proj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || rows[9][0].Int64() != 18 {
		t.Fatalf("pipeline: %v", rows)
	}
	if proj.Schema().Cols[0].Name != "double" {
		t.Fatal("schema names")
	}
}

func TestVolcanoAgg(t *testing.T) {
	tab := testTable(t, 1000, -1)
	agg := NewAggRow(NewTableScan(tab), []int{1}, []RowAggSpec{
		{Fn: "count", Col: -1},
		{Fn: "sum", Col: 0},
		{Fn: "min", Col: 3},
		{Fn: "max", Col: 3},
		{Fn: "avg", Col: 0},
	})
	rows, err := CollectRows(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("groups: %v", len(rows))
	}
	for _, r := range rows {
		g := r[0].Int64()
		if r[1].Int64() != 200 {
			t.Fatalf("count g%d: %v", g, r)
		}
		wantSum := 200*g + 5*(199*200/2)
		if r[2].Int64() != wantSum {
			t.Fatalf("sum g%d: %v want %d", g, r[2], wantSum)
		}
		if r[3].Float64() != float64(g)*1.5 {
			t.Fatalf("min g%d: %v", g, r)
		}
	}
}

func TestVolcanoScalarAggEmpty(t *testing.T) {
	tab := testTable(t, 0, -1)
	agg := NewAggRow(NewTableScan(tab), nil, []RowAggSpec{{Fn: "count", Col: -1}, {Fn: "avg", Col: 0}, {Fn: "sum", Col: 0}})
	rows, err := CollectRows(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int64() != 0 || !rows[0][1].Null || !rows[0][2].Null {
		t.Fatalf("empty agg: %v", rows)
	}
}

// An integer SUM fails instead of wrapping, grouped or not; a DOUBLE SUM of
// the same values does not.
func TestVolcanoSumOverflow(t *testing.T) {
	schema := types.NewSchema(types.Col("a", types.Int64), types.Col("g", types.Int64), types.Col("f", types.Float64))
	tab := NewHeapTable(schema, -1)
	for _, v := range []int64{math.MaxInt64, 1} {
		tab.Insert([]types.Value{types.NewInt64(v), types.NewInt64(0), types.NewFloat64(float64(v))})
	}
	for _, groupCols := range [][]int{nil, {1}} {
		agg := NewAggRow(NewTableScan(tab), groupCols, []RowAggSpec{{Fn: "sum", Col: 0}})
		if _, err := CollectRows(context.Background(), agg); !errors.Is(err, primitives.ErrOverflow) {
			t.Fatalf("group by %v: %v, want overflow", groupCols, err)
		}
		agg = NewAggRow(NewTableScan(tab), groupCols, []RowAggSpec{{Fn: "sum", Col: 2}, {Fn: "avg", Col: 0}})
		if _, err := CollectRows(context.Background(), agg); err != nil {
			t.Fatalf("float sum group by %v: %v", groupCols, err)
		}
	}
}

func TestVolcanoJoin(t *testing.T) {
	left := testTable(t, 10, -1)
	rightSchema := types.NewSchema(types.Col("g", types.Int64), types.Col("label", types.String))
	right := NewHeapTable(rightSchema, -1)
	for g := 0; g < 3; g++ { // groups 3,4 unmatched
		right.Insert([]types.Value{types.NewInt64(int64(g)), types.NewString("G" + string(rune('0'+g)))})
	}
	j := NewHashJoinRow(NewTableScan(left), NewTableScan(right), []int{1}, []int{0})
	rows, err := CollectRows(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // ids 0..9 with grp<3: grp0:0,5 grp1:1,6 grp2:2,7
		t.Fatalf("join rows: %d", len(rows))
	}
	for _, r := range rows {
		if r[1].Int64() != r[4].Int64() {
			t.Fatalf("key mismatch: %v", r)
		}
	}
}

func TestVolcanoJoinNullKeys(t *testing.T) {
	schema := types.NewSchema(types.Col("k", types.Int64.Null()))
	l := NewHeapTable(schema, -1)
	l.Insert([]types.Value{types.NewNull(types.KindInt64)})
	l.Insert([]types.Value{types.NewInt64(1)})
	r := NewHeapTable(schema, -1)
	r.Insert([]types.Value{types.NewInt64(1)})
	j := NewHashJoinRow(NewTableScan(l), NewTableScan(r), []int{0}, []int{0})
	rows, err := CollectRows(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("NULL keys must not join: %v", rows)
	}
}

func TestVolcanoSortLimit(t *testing.T) {
	tab := testTable(t, 100, -1)
	sorted := NewSortRow(NewTableScan(tab), []SortKeyRow{{Col: 1}, {Col: 0, Desc: true}})
	lim := NewLimitRow(sorted, 3)
	rows, err := CollectRows(context.Background(), lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][1].Int64() != 0 || rows[0][0].Int64() != 95 {
		t.Fatalf("sort/limit: %v", rows)
	}
}

func TestVolcanoCancellation(t *testing.T) {
	tab := testTable(t, 50000, -1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	agg := NewAggRow(NewTableScan(tab), nil, []RowAggSpec{{Fn: "count", Col: -1}})
	if _, err := CollectRows(ctx, agg); err == nil {
		t.Fatal("cancelled row plan completed")
	}
}

// The interpreter fails where the kernel fails: negating, or taking the
// absolute value of, the smallest integer and casting a value an integer
// type cannot hold overflow; a pad width of zero or less and a substring
// longer than the string do not fault.
func TestEvalRowEdgeValues(t *testing.T) {
	x64 := expr.Col(0, "x", types.Int64)
	x32 := expr.Col(1, "y", types.Int32)
	f := expr.Col(2, "f", types.Float64)
	s := expr.Col(3, "s", types.String)
	row := []types.Value{types.NewInt64(math.MinInt64), types.NewInt32(math.MinInt32),
		types.NewFloat64(math.NaN()), types.NewString("hello")}
	for _, e := range []expr.Expr{
		expr.NewCall("neg", x64), expr.NewCall("abs", x64),
		expr.NewCall("neg", x32), expr.NewCall("abs", x32),
		expr.NewCall("cast_int32", x64), expr.NewCall("cast_int64", f), expr.NewCall("cast_int32", f),
		expr.NewCall("cast_int64", expr.CFloat(9.3e18)), expr.NewCall("cast_int32", expr.CFloat(-2147483649)),
	} {
		if _, err := EvalRow(e, row); !errors.Is(err, primitives.ErrOverflow) {
			t.Errorf("%s: got %v, want overflow", e, err)
		}
	}
	for e, want := range map[expr.Expr]string{
		expr.NewCall("lpad", s, expr.CInt32(-1), expr.CStr("x")):          "",
		expr.NewCall("rpad", s, expr.CInt32(0), expr.CStr("x")):           "",
		expr.NewCall("substr", s, expr.CInt(2), expr.CInt(math.MaxInt64)): "ello",
		expr.NewCall("cast_int32", expr.CFloat(-2147483648.5)):            "-2147483648",
	} {
		if v, err := EvalRow(e, row); err != nil || v.String() != want {
			t.Errorf("%s: got %v (%v), want %s", e, v, err, want)
		}
	}
}
