package exec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/datagen"
	"vectorwise/internal/expr"
	"vectorwise/internal/pdt"
	"vectorwise/internal/rowengine"
	"vectorwise/internal/types"
)

// The paper's ">10x" yardstick: a TPC-H-Q1-style query run by this package's
// vectorized operators over the column store, and by the row engine's
// tuple-at-a-time operators over a heap holding the same rows.
//
//	SELECT l_returnflag, l_linestatus, count(*), sum(qty),
//	       sum(extprice*(1-discount)), avg(extprice)
//	FROM lineitem WHERE l_shipdate <= DATE '1998-09-01'
//	GROUP BY l_returnflag, l_linestatus

const q1BenchRows = 200_000

// q1Cols are the columns the query touches: shipdate, qty, extprice,
// discount, flag, status.
var q1Cols = []int{8, 2, 3, 4, 6, 7}

var q1Cutoff = types.DateFromYMD(1998, 9, 1)

// q1Fixture loads rows lineitem rows into both stores. The column-store copy
// drops the comment column, which the query does not touch, so the scan
// schema is NULL-free.
func q1Fixture(rows int) (*colstore.Table, *rowengine.HeapTable, error) {
	phys := types.NewSchema(
		types.Col("l_orderkey", types.Int64),
		types.Col("l_partkey", types.Int64),
		types.Col("l_quantity", types.Int32),
		types.Col("l_extendedprice", types.Float64),
		types.Col("l_discount", types.Float64),
		types.Col("l_tax", types.Float64),
		types.Col("l_returnflag", types.String),
		types.Col("l_linestatus", types.String),
		types.Col("l_shipdate", types.Date),
		types.Col("l_shipmode", types.String),
	)
	tab := colstore.NewTable(phys)
	ap := tab.NewAppender()
	heap := rowengine.NewHeapTable(phys, -1)
	err := datagen.Lineitems(float64(rows)/datagen.RowsPerSF, 42, func(row []types.Value) error {
		r := row[:10]
		if err := ap.AppendRow(r); err != nil {
			return err
		}
		_, err := heap.Insert(append([]types.Value(nil), r...))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return tab, heap, ap.Close()
}

var (
	q1Once  sync.Once
	q1Tab   *colstore.Table
	q1Heap  *rowengine.HeapTable
	q1Error error
)

func q1BenchFixture(b *testing.B) (*colstore.Table, *rowengine.HeapTable) {
	b.Helper()
	q1Once.Do(func() { q1Tab, q1Heap, q1Error = q1Fixture(q1BenchRows) })
	if q1Error != nil {
		b.Fatal(q1Error)
	}
	return q1Tab, q1Heap
}

// buildQ1Vectorized plans the query over tab; vecSize 0 keeps the
// context's vector size.
func buildQ1Vectorized(tab *colstore.Table, vecSize int) (Operator, error) {
	kinds := []types.Kind{types.KindDate, types.KindInt32, types.KindFloat64,
		types.KindFloat64, types.KindString, types.KindString}
	scan := NewColScan(kinds, func(vs int) (pdt.BatchSource, error) {
		if vecSize > 0 {
			vs = vecSize
		}
		return tab.NewScanner(q1Cols, vs)
	})
	sel := NewSelect(scan, expr.NewCall("<=",
		expr.Col(0, "l_shipdate", types.Date), expr.CDate(q1Cutoff)))
	proj := NewProject(sel, []expr.Expr{
		expr.Col(4, "flag", types.String),
		expr.Col(5, "status", types.String),
		expr.Col(1, "qty", types.Int32),
		expr.NewCall("*", expr.Col(2, "extprice", types.Float64),
			expr.NewCall("-", expr.CFloat(1), expr.Col(3, "discount", types.Float64))),
		expr.Col(2, "extprice", types.Float64),
	})
	return NewHashAgg(proj, []int{0, 1}, []AggSpec{
		{Fn: AggCount, Col: -1},
		{Fn: AggSum, Col: 2},
		{Fn: AggSum, Col: 3},
		{Fn: AggAvg, Col: 4},
	})
}

func runQ1Vectorized(tab *colstore.Table, vecSize int) ([][]types.Value, error) {
	op, err := buildQ1Vectorized(tab, vecSize)
	if err != nil {
		return nil, err
	}
	ctx := NewCtx(context.Background())
	if vecSize > 0 {
		ctx.VecSize = vecSize
	}
	return Collect(ctx, op)
}

func runQ1TupleAtATime(heap *rowengine.HeapTable) ([][]types.Value, error) {
	scan := rowengine.NewTableScan(heap)
	filt := rowengine.NewFilter(scan, expr.NewCall("<=",
		expr.Col(8, "l_shipdate", types.Date), expr.CDate(q1Cutoff)))
	proj := rowengine.NewMap(filt, []expr.Expr{
		expr.Col(6, "flag", types.String),
		expr.Col(7, "status", types.String),
		expr.Col(2, "qty", types.Int32),
		expr.NewCall("*", expr.Col(3, "extprice", types.Float64),
			expr.NewCall("-", expr.CFloat(1), expr.Col(4, "discount", types.Float64))),
		expr.Col(3, "extprice", types.Float64),
	}, []string{"f", "s", "q", "dp", "ep"})
	agg := rowengine.NewAggRow(proj, []int{0, 1}, []rowengine.RowAggSpec{
		{Fn: "count", Col: -1},
		{Fn: "sum", Col: 2},
		{Fn: "sum", Col: 3},
		{Fn: "avg", Col: 4},
	})
	return rowengine.CollectRows(context.Background(), agg)
}

// The two programs must compute the same answer for their speeds to be
// compared: the same six groups, counts and integer sums exactly, float
// sums up to their different addition order.
func TestQ1VectorizedEqualsTupleAtATime(t *testing.T) {
	tab, heap, err := q1Fixture(20_000)
	if err != nil {
		t.Fatal(err)
	}
	vecRows, err := runQ1Vectorized(tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	tupRows, err := runQ1TupleAtATime(heap)
	if err != nil {
		t.Fatal(err)
	}
	byKey := func(rows [][]types.Value) {
		sort.Slice(rows, func(i, j int) bool {
			return rows[i][0].Str+rows[i][1].Str < rows[j][0].Str+rows[j][1].Str
		})
	}
	byKey(vecRows)
	byKey(tupRows)
	if len(vecRows) != 6 || len(tupRows) != 6 {
		t.Fatalf("groups: vectorized %d, tuple-at-a-time %d", len(vecRows), len(tupRows))
	}
	for i, v := range vecRows {
		u := tupRows[i]
		if u[3].I64 <= 0 || u[5].F64 <= 0 {
			t.Fatalf("row %d: empty aggregates %v", i, u)
		}
		if v[0].Str != u[0].Str || v[1].Str != u[1].Str || v[2].I64 != u[2].I64 || v[3].I64 != u[3].I64 {
			t.Fatalf("row %d: vectorized %v, tuple-at-a-time %v", i, v, u)
		}
		for c := 4; c < 6; c++ {
			if d := math.Abs(v[c].F64 - u[c].F64); d > 1e-9*math.Abs(u[c].F64) {
				t.Fatalf("row %d col %d: vectorized %v, tuple-at-a-time %v", i, c, v[c].F64, u[c].F64)
			}
		}
	}
}

// --- E1: vectorized vs tuple-at-a-time (claim C1, ">10x") ---

func BenchmarkE1_VectorizedQ1(b *testing.B) {
	tab, _ := q1BenchFixture(b)
	b.SetBytes(q1BenchRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := runQ1Vectorized(tab, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("groups: %d", len(rows))
		}
	}
}

func BenchmarkE1_TupleAtATimeQ1(b *testing.B) {
	_, heap := q1BenchFixture(b)
	b.SetBytes(q1BenchRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := runQ1TupleAtATime(heap)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("groups: %d", len(rows))
		}
	}
}

// --- E2: vector-size sweep (the X100 U-curve) ---

func BenchmarkE2_VectorSize(b *testing.B) {
	tab, _ := q1BenchFixture(b)
	b.ResetTimer()
	for _, vs := range []int{1, 4, 16, 64, 256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("vs=%d", vs), func(b *testing.B) {
			b.SetBytes(q1BenchRows)
			for i := 0; i < b.N; i++ {
				rows, err := runQ1Vectorized(tab, vs)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 6 {
					b.Fatalf("groups: %d", len(rows))
				}
			}
		})
	}
}
