package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vectorwise/internal/rowengine"
	"vectorwise/internal/types"
)

// ORDER BY over a DOUBLE column holding NaN: NaN equals itself and sorts
// after every number (first under DESC), as in PostgreSQL, and the
// tuple-at-a-time engine orders the same rows the same way.
func TestOrderByNaN(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "nan.csv")
	if err := os.WriteFile(csv, []byte("0,3\n1,NaN\n2,1\n3,5\n4,NaN\n5,2\n6,4\n7,0\n8,-Inf\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open()
	mustExec(t, db, `CREATE TABLE v (id BIGINT NOT NULL, x DOUBLE NOT NULL)`)
	mustExec(t, db, `CREATE TABLE h (id BIGINT NOT NULL, x DOUBLE NOT NULL) WITH STRUCTURE=HEAP`)
	mustExec(t, db, `COPY v FROM '`+csv+`'`)
	mustExec(t, db, `COPY h FROM '`+csv+`'`)

	all := mustExec(t, db, `SELECT id, x FROM v`)
	heap := rowengine.NewHeapTable(types.NewSchema(types.Col("id", types.Int64), types.Col("x", types.Float64)), -1)
	for _, row := range all.Rows {
		if _, err := heap.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	volcano, err := rowengine.CollectRows(context.Background(),
		rowengine.NewSortRow(rowengine.NewTableScan(heap), []rowengine.SortKeyRow{{Col: 1}}))
	if err != nil {
		t.Fatal(err)
	}

	for _, table := range []string{"v", "h"} {
		got := mustExec(t, db, `SELECT id, x FROM `+table+` ORDER BY x`)
		if ids := fmt.Sprint(column(got.Rows, 0)); ids != "[8 7 2 5 0 6 3 1 4]" {
			t.Fatalf("%s ORDER BY x: ids %s, rows %v", table, ids, got.Rows)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(volcano) {
			t.Fatalf("%s ORDER BY x: vectorized %v, tuple-at-a-time %v", table, got.Rows, volcano)
		}
		top := mustExec(t, db, `SELECT id, x FROM `+table+` ORDER BY x DESC LIMIT 3`)
		if ids := fmt.Sprint(column(top.Rows, 0)); ids != "[1 4 3]" {
			t.Fatalf("%s ORDER BY x DESC LIMIT 3: ids %s, rows %v", table, ids, top.Rows)
		}
	}
}

func column(rows [][]types.Value, c int) []types.Value {
	out := make([]types.Value, len(rows))
	for i, r := range rows {
		out[i] = r[c]
	}
	return out
}
