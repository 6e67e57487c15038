package rowengine

import (
	"context"
	"errors"
	"math"
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

func TestHeapInsertGetRoundTrip(t *testing.T) {
	tab := testTable(t, 1000, 0)
	if tab.Rows() != 1000 {
		t.Fatalf("rows: %d", tab.Rows())
	}
	row, err := tab.Lookup(567)
	if err != nil || row == nil {
		t.Fatalf("lookup: %v %v", row, err)
	}
	if row[0].Int64() != 567 || row[2].Str != "nameA" || row[3].Float64() != 850.5 {
		t.Fatalf("content: %v", row)
	}
	if r, err := tab.Lookup(99999); err != nil || r != nil {
		t.Fatalf("missing lookup: %v %v", r, err)
	}
	// Several pages were used for 1000 rows.
	if tab.BytesUsed() < 2*PageSize {
		t.Fatalf("pages: %d", tab.BytesUsed())
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
	ok, err := tab.DeleteByKey(50)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if tab.Rows() != 99 {
		t.Fatalf("rows after delete: %d", tab.Rows())
	}
	if r, _ := tab.Lookup(50); r != nil {
		t.Fatal("deleted row still found")
	}
	if ok, _ := tab.DeleteByKey(50); ok {
		t.Fatal("double delete reported success")
	}
	// In-place update (same size).
	var rid RowID
	tab.ScanFunc(func(r RowID, row []types.Value) bool {
		if row[0].Int64() == 10 {
			rid = r
			return false
		}
		return true
	})
	nrid, err := tab.Update(rid, []types.Value{
		types.NewInt64(10), types.NewInt64(9), types.NewString("nameA"), types.NewFloat64(-1),
	})
	if err != nil {
		t.Fatal(err)
	}
	row, _ := tab.Get(nrid)
	if row[1].Int64() != 9 || row[3].Float64() != -1 {
		t.Fatalf("update: %v", row)
	}
	// Growing update forces relocation.
	nrid2, err := tab.Update(nrid, []types.Value{
		types.NewInt64(10), types.NewInt64(9), types.NewString("a much longer name than before"), types.NewFloat64(-1),
	})
	if err != nil {
		t.Fatal(err)
	}
	row, _ = tab.Get(nrid2)
	if row[2].Str != "a much longer name than before" {
		t.Fatalf("relocated update: %v", row)
	}
	if r, _ := tab.Lookup(10); r == nil {
		t.Fatal("index lost after relocation")
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
	agg := NewAggRow(NewTableScan(tab), nil, []RowAggSpec{{Fn: "count", Col: -1}, {Fn: "avg", Col: 0}})
	rows, err := CollectRows(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int64() != 0 || !rows[0][1].Null {
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
