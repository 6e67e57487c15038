package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/rowengine"
	"vectorwise/internal/types"
)

// doubleKeyDomain holds every DOUBLE key equality has to get right: NaN more
// than once, and both zeros.
var doubleKeyDomain = []float64{3, math.NaN(), 1, math.Copysign(0, -1), math.NaN(), 0, math.NaN()}

// groupCounts reads (x, COUNT(*)) rows into a map keyed by x, with -0
// written as 0, and fails on a key that appears twice.
func groupCounts(t *testing.T, rows [][]types.Value) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, r := range rows {
		x := r[0].F64
		if x == 0 {
			x = 0
		}
		k := fmt.Sprint(x)
		if _, dup := out[k]; dup {
			t.Fatalf("group %s appears twice among %d groups", k, len(rows))
		}
		out[k] = r[1].Int64()
	}
	return out
}

// GROUP BY over a DOUBLE key puts every NaN in one group and -0 with +0: the
// equality of ORDER BY (types.CompareFloat64). A join on a DOUBLE key is SQL
// =, under which NaN matches nothing and -0 matches +0. The vectorized plans
// over a vectorwise and a heap table, serial and parallel, and the
// tuple-at-a-time operators all agree.
func TestDoubleKeyNaNAndSignedZero(t *testing.T) {
	rows := 2 * colstore.BlockRows // two row groups, so PARALLEL=2 merges two partials
	want := map[string]int64{}
	for r := 0; r < rows; r++ {
		x := doubleKeyDomain[r%len(doubleKeyDomain)]
		if x == 0 {
			x = 0
		}
		want[fmt.Sprint(x)]++
	}
	db := Open()
	mustExec(t, db, `CREATE TABLE v (x DOUBLE NOT NULL)`)
	mustExec(t, db, `CREATE TABLE h (x DOUBLE NOT NULL) WITH STRUCTURE=HEAP`)
	mustExec(t, db, `CREATE TABLE vs (x DOUBLE NOT NULL)`)
	mustExec(t, db, `CREATE TABLE hs (x DOUBLE NOT NULL) WITH STRUCTURE=HEAP`)
	for table, n := range map[string]int{"v": rows, "h": rows, "vs": len(doubleKeyDomain), "hs": len(doubleKeyDomain)} {
		err := db.LoadBatchFunc(table, func(emit func([]types.Value) error) error {
			for r := 0; r < n; r++ {
				if err := emit([]types.Value{types.NewFloat64(doubleKeyDomain[r%len(doubleKeyDomain)])}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if plan := mustExec(t, db, `EXPLAIN PHYSICAL SELECT x, COUNT(*) FROM v GROUP BY x WITH (PARALLEL=2)`).Text; !strings.Contains(plan, "Xchg") {
		t.Fatalf("not a parallel plan: %s", plan)
	}
	for _, table := range []string{"v", "h"} {
		for _, q := range []string{
			`SELECT x, COUNT(*) FROM %s GROUP BY x`,
			`SELECT x, COUNT(*) FROM %s GROUP BY x WITH (PARALLEL=2)`,
		} {
			q := fmt.Sprintf(q, table)
			if got := groupCounts(t, mustExec(t, db, q).Rows); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %v, want %v", q, got, want)
			}
		}
	}
	// 3=3, 1=1 and the four pairs of zeros.
	for _, q := range []string{
		`SELECT COUNT(*) FROM vs a JOIN vs b ON a.x = b.x`,
		`SELECT COUNT(*) FROM hs a JOIN vs b ON a.x = b.x`,
		`SELECT COUNT(*) FROM hs a JOIN hs b ON a.x = b.x`,
	} {
		if got := mustExec(t, db, q).Rows[0][0].Int64(); got != 6 {
			t.Fatalf("%s: %d, want 6", q, got)
		}
	}

	heap := rowengine.NewHeapTable(types.NewSchema(types.Col("x", types.Float64)), -1)
	for _, x := range doubleKeyDomain {
		if _, err := heap.Insert([]types.Value{types.NewFloat64(x)}); err != nil {
			t.Fatal(err)
		}
	}
	agg, err := rowengine.CollectRows(context.Background(), rowengine.NewAggRow(
		rowengine.NewTableScan(heap), []int{0}, []rowengine.RowAggSpec{{Fn: "count", Col: -1}}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(groupCounts(t, agg)), "map[0:2 1:1 3:1 NaN:3]"; got != want {
		t.Fatalf("AggRow: %s, want %s", got, want)
	}
	join, err := rowengine.CollectRows(context.Background(), rowengine.NewHashJoinRow(
		rowengine.NewTableScan(heap), rowengine.NewTableScan(heap), []int{0}, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(join) != 6 {
		t.Fatalf("HashJoinRow: %d rows %v, want 6", len(join), join)
	}
}
