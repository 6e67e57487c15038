package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/types"
)

func mustExec(t *testing.T, db *DB, q string) *Result {
	t.Helper()
	res, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func execErr(t *testing.T, db *DB, q string) error {
	t.Helper()
	_, err := db.Exec(context.Background(), q)
	if err == nil {
		t.Fatalf("exec %q: expected error", q)
	}
	return err
}

// itemsDB builds a small two-table database used across tests.
func itemsDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE items (
		id BIGINT NOT NULL PRIMARY KEY,
		grp BIGINT NOT NULL,
		price DOUBLE,
		name VARCHAR NOT NULL,
		d DATE NOT NULL)`)
	mustExec(t, db, `CREATE TABLE groups (gid BIGINT NOT NULL PRIMARY KEY, label VARCHAR NOT NULL)`)
	for g := 0; g < 4; g++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO groups VALUES (%d, 'G%d')`, g, g))
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO items VALUES ")
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		price := fmt.Sprintf("%d.5", i)
		if i%10 == 3 {
			price = "NULL" // every 10th-ish row has NULL price
		}
		fmt.Fprintf(&sb, "(%d, %d, %s, 'item%d', DATE '2020-01-01')", i, i%5, price, i%7)
	}
	mustExec(t, db, sb.String())
	return db
}

func TestEndToEndSelect(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `SELECT id, name FROM items WHERE id < 3 ORDER BY id`)
	if len(res.Rows) != 3 || res.Rows[2][0].Int64() != 2 || res.Rows[0][1].Str != "item0" {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Cols[0] != "id" || res.Cols[1] != "name" {
		t.Fatalf("cols: %v", res.Cols)
	}
}

func TestEndToEndNulls(t *testing.T) {
	db := itemsDB(t)
	// NULL prices surface as NULL.
	res := mustExec(t, db, `SELECT price FROM items WHERE id = 3`)
	if len(res.Rows) != 1 || !res.Rows[0][0].Null {
		t.Fatalf("null price: %v", res.Rows)
	}
	// IS NULL filter.
	res = mustExec(t, db, `SELECT COUNT(*) FROM items WHERE price IS NULL`)
	if res.Rows[0][0].Int64() != 10 {
		t.Fatalf("null count: %v", res.Rows)
	}
	// NULL-safe arithmetic: NULL price + 1 stays NULL, filtered by >.
	res = mustExec(t, db, `SELECT COUNT(*) FROM items WHERE price + 1 > 0`)
	if res.Rows[0][0].Int64() != 90 {
		t.Fatalf("null arith: %v", res.Rows)
	}
	// COALESCE recovers.
	res = mustExec(t, db, `SELECT COUNT(*) FROM items WHERE COALESCE(price, -1.0) < 0`)
	if res.Rows[0][0].Int64() != 10 {
		t.Fatalf("coalesce: %v", res.Rows)
	}
}

func TestEndToEndAggregation(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `SELECT grp, COUNT(*), COUNT(price), SUM(price), MIN(price), MAX(price), AVG(price)
		FROM items GROUP BY grp ORDER BY grp`)
	if len(res.Rows) != 5 {
		t.Fatalf("groups: %v", len(res.Rows))
	}
	// Group 3 contains ids 3,8,13,…,98; ids ≡3 (mod 10) have NULL price.
	r3 := res.Rows[3]
	if r3[1].Int64() != 20 {
		t.Fatalf("count(*): %v", r3)
	}
	if r3[2].Int64() != 10 { // half the group's prices are NULL (ids 3,13,…,93)
		t.Fatalf("count(price): %v", r3)
	}
	// sum of prices for ids 8,18,…,98 = sum(i+0.5 for those ids).
	wantSum := 0.0
	cnt := 0
	for i := 8; i < 100; i += 10 {
		wantSum += float64(i) + 0.5
		cnt++
	}
	if r3[3].Float64() != wantSum {
		t.Fatalf("sum: %v want %v", r3[3], wantSum)
	}
	if r3[4].Float64() != 8.5 || r3[5].Float64() != 98.5 {
		t.Fatalf("min/max: %v", r3)
	}
	if r3[6].Float64() != wantSum/float64(cnt) {
		t.Fatalf("avg: %v", r3)
	}
}

func TestAggregateAllNullGroup(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (g BIGINT NOT NULL, v DOUBLE)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, NULL), (1, NULL), (2, 5.0)`)
	res := mustExec(t, db, `SELECT g, SUM(v), MIN(v), AVG(v), COUNT(v) FROM t GROUP BY g ORDER BY g`)
	r1 := res.Rows[0]
	if !r1[1].Null || !r1[2].Null || !r1[3].Null || r1[4].Int64() != 0 {
		t.Fatalf("all-null group: %v", r1)
	}
	r2 := res.Rows[1]
	if r2[1].Null || r2[1].Float64() != 5 {
		t.Fatalf("non-null group: %v", r2)
	}
}

func TestEndToEndJoin(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `SELECT i.id, g.label FROM items i JOIN groups g ON i.grp = g.gid WHERE i.id < 10 ORDER BY i.id`)
	// grp = id%5; groups 0..3 exist (grp 4 unmatched).
	if len(res.Rows) != 8 {
		t.Fatalf("join rows: %v", len(res.Rows))
	}
	if res.Rows[0][1].Str != "G0" || res.Rows[1][1].Str != "G1" {
		t.Fatalf("labels: %v", res.Rows)
	}
	// Left outer keeps unmatched with NULL label.
	res = mustExec(t, db, `SELECT i.id, g.label FROM items i LEFT JOIN groups g ON i.grp = g.gid WHERE i.id < 10 ORDER BY i.id`)
	if len(res.Rows) != 10 {
		t.Fatalf("left join rows: %v", len(res.Rows))
	}
	if !res.Rows[4][1].Null || !res.Rows[9][1].Null { // ids 4 and 9 have grp 4
		t.Fatalf("left join nulls: %v", res.Rows)
	}
}

func TestEndToEndSubqueries(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `SELECT COUNT(*) FROM items WHERE grp IN (SELECT gid FROM groups)`)
	if res.Rows[0][0].Int64() != 80 {
		t.Fatalf("IN subquery: %v", res.Rows)
	}
	res = mustExec(t, db, `SELECT COUNT(*) FROM items WHERE grp NOT IN (SELECT gid FROM groups)`)
	if res.Rows[0][0].Int64() != 20 {
		t.Fatalf("NOT IN: %v", res.Rows)
	}
	// Scalar subquery.
	res = mustExec(t, db, `SELECT COUNT(*) FROM items WHERE price > (SELECT AVG(price) FROM items)`)
	if res.Rows[0][0].Int64() == 0 || res.Rows[0][0].Int64() >= 90 {
		t.Fatalf("scalar subquery: %v", res.Rows)
	}
}

// The paper's NOT IN NULL intricacy (claim C10): a NULL in the subquery
// empties NOT IN entirely.
func TestNotInWithNulls(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE a (x BIGINT NOT NULL)`)
	mustExec(t, db, `CREATE TABLE b (y BIGINT)`)
	mustExec(t, db, `INSERT INTO a VALUES (1), (2), (3)`)
	mustExec(t, db, `INSERT INTO b VALUES (1), (NULL)`)
	res := mustExec(t, db, `SELECT COUNT(*) FROM a WHERE x NOT IN (SELECT y FROM b)`)
	if res.Rows[0][0].Int64() != 0 {
		t.Fatalf("NOT IN with NULL must be empty: %v", res.Rows)
	}
	// Without the NULL, the anti join behaves plainly.
	mustExec(t, db, `DELETE FROM b WHERE y IS NULL`)
	res = mustExec(t, db, `SELECT COUNT(*) FROM a WHERE x NOT IN (SELECT y FROM b)`)
	if res.Rows[0][0].Int64() != 2 {
		t.Fatalf("NOT IN without NULL: %v", res.Rows)
	}
	// IN treats NULL rows as non-matching but keeps other matches.
	mustExec(t, db, `INSERT INTO b VALUES (NULL)`)
	res = mustExec(t, db, `SELECT COUNT(*) FROM a WHERE x IN (SELECT y FROM b)`)
	if res.Rows[0][0].Int64() != 1 {
		t.Fatalf("IN with NULL: %v", res.Rows)
	}
}

func TestEndToEndUpdateDelete(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `UPDATE items SET price = 0.0 WHERE price IS NULL`)
	if res.Affected != 10 {
		t.Fatalf("update affected: %d", res.Affected)
	}
	res = mustExec(t, db, `SELECT COUNT(*) FROM items WHERE price IS NULL`)
	if res.Rows[0][0].Int64() != 0 {
		t.Fatalf("nulls remain: %v", res.Rows)
	}
	res = mustExec(t, db, `DELETE FROM items WHERE id >= 90`)
	if res.Affected != 10 {
		t.Fatalf("delete affected: %d", res.Affected)
	}
	res = mustExec(t, db, `SELECT COUNT(*), MAX(id) FROM items`)
	if res.Rows[0][0].Int64() != 90 || res.Rows[0][1].Int64() != 89 {
		t.Fatalf("after delete: %v", res.Rows)
	}
	// Set a column to NULL.
	mustExec(t, db, `UPDATE items SET price = NULL WHERE id = 0`)
	res = mustExec(t, db, `SELECT price FROM items WHERE id = 0`)
	if !res.Rows[0][0].Null {
		t.Fatalf("set null: %v", res.Rows)
	}
}

func TestCheckpointKeepsData(t *testing.T) {
	db := itemsDB(t)
	mustExec(t, db, `DELETE FROM items WHERE id < 5`)
	mustExec(t, db, `INSERT INTO items VALUES (1000, 0, 1.0, 'late', DATE '2021-01-01')`)
	before := mustExec(t, db, `SELECT COUNT(*), SUM(id) FROM items`)
	mustExec(t, db, `CHECKPOINT items`)
	after := mustExec(t, db, `SELECT COUNT(*), SUM(id) FROM items`)
	if before.Rows[0][0].Int64() != after.Rows[0][0].Int64() ||
		before.Rows[0][1].Int64() != after.Rows[0][1].Int64() {
		t.Fatalf("checkpoint changed data: %v vs %v", before.Rows, after.Rows)
	}
	store, _ := db.Store("items")
	if store.PendingOps() != 0 {
		t.Fatal("pending ops after checkpoint")
	}
}

func TestHeapTableEndToEnd(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE kv (k BIGINT NOT NULL PRIMARY KEY, v VARCHAR) WITH STRUCTURE=HEAP`)
	mustExec(t, db, `INSERT INTO kv VALUES (1, 'one'), (2, NULL), (3, 'three')`)
	res := mustExec(t, db, `SELECT k, v FROM kv WHERE v IS NOT NULL ORDER BY k DESC`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int64() != 3 {
		t.Fatalf("heap query: %v", res.Rows)
	}
	mustExec(t, db, `UPDATE kv SET v = 'two' WHERE k = 2`)
	res = mustExec(t, db, `SELECT COUNT(*) FROM kv WHERE v IS NULL`)
	if res.Rows[0][0].Int64() != 0 {
		t.Fatalf("heap update: %v", res.Rows)
	}
	mustExec(t, db, `DELETE FROM kv WHERE k = 1`)
	res = mustExec(t, db, `SELECT COUNT(*) FROM kv`)
	if res.Rows[0][0].Int64() != 2 {
		t.Fatalf("heap delete: %v", res.Rows)
	}
	// Heap and vectorwise tables join in one query.
	mustExec(t, db, `CREATE TABLE dim (k BIGINT NOT NULL, label VARCHAR NOT NULL)`)
	mustExec(t, db, `INSERT INTO dim VALUES (2, 'dim2'), (3, 'dim3')`)
	res = mustExec(t, db, `SELECT kv.v, dim.label FROM kv JOIN dim ON kv.k = dim.k ORDER BY kv.k`)
	if len(res.Rows) != 2 || res.Rows[0][1].Str != "dim2" {
		t.Fatalf("cross-engine join: %v", res.Rows)
	}
}

func TestExplainShowsPipeline(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `EXPLAIN SELECT grp, COUNT(*) FROM items WHERE id > 10 GROUP BY grp`)
	for _, want := range []string{"logical plan", "Scan(items:vectorwise, [id, grp, price, name, d])",
		"optimized plan", "Scan(items:vectorwise, [id, grp, price, name, d], ranges=[$0 in [10,+inf]])",
		"physical plan", "Scan('items', [id grp] @ [0 1], filters=[col0 in [10,+inf]])", "HashAgg"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("explain missing %q:\n%s", want, res.Text)
		}
	}
	// The rewriter rewrites the tree the physical plan shows, so no
	// separate algebra stage is printed.
	if strings.Count(res.Text, "== ") != 3 {
		t.Fatalf("explain should show three stages:\n%s", res.Text)
	}
}

func TestExplainPhysical(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `EXPLAIN PHYSICAL SELECT grp, COUNT(*) FROM items WHERE id > 10 GROUP BY grp`)
	for _, want := range []string{"== physical plan ==", "Scan('items', [id grp] @ [0 1], filters=[col0 in [10,+inf]])",
		"HashAgg", "Select(", ":: ["} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("explain physical missing %q:\n%s", want, res.Text)
		}
	}
	if strings.Contains(res.Text, "logical plan") {
		t.Fatalf("EXPLAIN PHYSICAL should render only the physical DAG:\n%s", res.Text)
	}
	// The heap structure lowers to a HeapScan node.
	mustExec(t, db, `CREATE TABLE hp (k BIGINT NOT NULL) WITH STRUCTURE=HEAP`)
	res = mustExec(t, db, `EXPLAIN PHYSICAL SELECT k FROM hp`)
	if !strings.Contains(res.Text, "HeapScan('hp', [k] @ [0])") {
		t.Fatalf("heap table should plan a HeapScan:\n%s", res.Text)
	}
}

func TestProfileRendersOperatorStats(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `PROFILE SELECT grp, COUNT(*) FROM items GROUP BY grp`)
	for _, want := range []string{"== execution ==", "== operator profile ==", "rows=", "batches="} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("profile missing %q:\n%s", want, res.Text)
		}
	}
}

func TestMonitorRecordsPhysicalPlan(t *testing.T) {
	db := itemsDB(t)
	mustExec(t, db, `SELECT COUNT(*) FROM items`)
	hist := db.Monitor.History()
	last := hist[len(hist)-1]
	if !strings.Contains(last.Plan, "HashAgg") || !strings.Contains(last.Plan, "Scan('items'") {
		t.Fatalf("monitor plan not attached: %q", last.Plan)
	}
}

func TestShowTablesAndQueries(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `SHOW TABLES`)
	if len(res.Rows) != 2 {
		t.Fatalf("tables: %v", res.Rows)
	}
	if got := mustExec(t, db, `SHOW QUERIES`); len(got.Rows) != 0 {
		t.Fatalf("no queries should be active: %v", got.Rows)
	}
	mustExec(t, db, `SELECT COUNT(*) FROM items`)
	// History and events recorded (claim C12 monitoring).
	if len(db.Monitor.History()) == 0 || len(db.Monitor.Events()) == 0 {
		t.Fatal("monitor recorded nothing")
	}
}

func TestParallelQueryMatchesSerial(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE big (a BIGINT NOT NULL, b BIGINT NOT NULL, c DOUBLE NOT NULL)`)
	err := db.LoadBatchFunc("big", func(emit func([]types.Value) error) error {
		for i := 0; i < 100000; i++ {
			if err := emit([]types.Value{
				types.NewInt64(int64(i)),
				types.NewInt64(int64(i % 13)),
				types.NewFloat64(float64(i) * 0.25),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := mustExec(t, db, `SELECT b, COUNT(*), SUM(a), MIN(c), MAX(c), AVG(c) FROM big GROUP BY b ORDER BY b`)
	parallel := mustExec(t, db, `SELECT b, COUNT(*), SUM(a), MIN(c), MAX(c), AVG(c) FROM big GROUP BY b ORDER BY b WITH (PARALLEL=4)`)
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		for c := range serial.Rows[i] {
			a, b := serial.Rows[i][c], parallel.Rows[i][c]
			if a.String() != b.String() {
				t.Fatalf("row %d col %d: serial %v parallel %v", i, c, a, b)
			}
		}
	}
}

func TestErrorHandlingSurfacesInQueries(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE n (x BIGINT NOT NULL, y BIGINT NOT NULL)`)
	mustExec(t, db, `INSERT INTO n VALUES (1, 0), (4, 2)`)
	// Division by zero detected (claim C8): x/y hits y=0.
	if err := execErr(t, db, `SELECT x / y FROM n`); !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("div0: %v", err)
	}
	// Overflow detected.
	mustExec(t, db, `CREATE TABLE o (x BIGINT NOT NULL)`)
	mustExec(t, db, `INSERT INTO o VALUES (9223372036854775807)`)
	if err := execErr(t, db, `SELECT x + 1 FROM o`); !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("overflow: %v", err)
	}
}

func TestFunctionsEndToEnd(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `SELECT UPPER(name), LENGTH(name), SUBSTRING(name, 1, 4),
		name || '!', YEAR(d), MONTH(d), ROUND(price, 0), ABS(0 - id)
		FROM items WHERE id = 1`)
	r := res.Rows[0]
	if r[0].Str != "ITEM1" || r[1].Int64() != 5 || r[2].Str != "item" || r[3].Str != "item1!" {
		t.Fatalf("string funcs: %v", r)
	}
	if r[4].Int32() != 2020 || r[5].Int32() != 1 {
		t.Fatalf("date funcs: %v", r)
	}
	if r[6].Float64() != 2.0 || r[7].Int64() != 1 {
		t.Fatalf("math funcs: %v", r)
	}
	// LIKE filters.
	res = mustExec(t, db, `SELECT COUNT(*) FROM items WHERE name LIKE 'item1%'`)
	if res.Rows[0][0].Int64() == 0 {
		t.Fatalf("like: %v", res.Rows)
	}
	// CASE.
	res = mustExec(t, db, `SELECT CASE WHEN grp < 2 THEN 'low' ELSE 'high' END, COUNT(*)
		FROM items GROUP BY CASE WHEN grp < 2 THEN 'low' ELSE 'high' END ORDER BY 1 DESC`)
	_ = res
}

func TestAnalyzeFeedsOptimizer(t *testing.T) {
	db := itemsDB(t)
	mustExec(t, db, `ANALYZE items`)
	if db.Column("items", "id") == nil {
		t.Fatal("no stats after analyze")
	}
	if db.Column("items", "price").NullFrac == 0 {
		t.Fatal("null fraction not recorded")
	}
	// Query still correct with stats present.
	res := mustExec(t, db, `SELECT COUNT(*) FROM items WHERE id < 50`)
	if res.Rows[0][0].Int64() != 50 {
		t.Fatalf("post-analyze query: %v", res.Rows)
	}
}

func TestInsertSelectAndDerivedTables(t *testing.T) {
	db := itemsDB(t)
	mustExec(t, db, `CREATE TABLE summary (grp BIGINT NOT NULL, total DOUBLE)`)
	res := mustExec(t, db, `INSERT INTO summary SELECT grp, SUM(price) FROM items GROUP BY grp`)
	if res.Affected != 5 {
		t.Fatalf("insert select: %d", res.Affected)
	}
	res = mustExec(t, db, `SELECT s.grp FROM (SELECT grp, total FROM summary) s WHERE s.total > 900.0 ORDER BY s.grp`)
	if len(res.Rows) == 0 {
		t.Fatalf("derived table: %v", res.Rows)
	}
}

func TestDistinctAndSortNulls(t *testing.T) {
	db := itemsDB(t)
	res := mustExec(t, db, `SELECT DISTINCT grp FROM items`)
	if len(res.Rows) != 5 {
		t.Fatalf("distinct: %v", res.Rows)
	}
	// ORDER BY a nullable column: NULLs group together at the end.
	res = mustExec(t, db, `SELECT price FROM items ORDER BY price LIMIT 100`)
	sawNull := false
	for _, r := range res.Rows {
		if r[0].Null {
			sawNull = true
		} else if sawNull {
			t.Fatal("non-NULL after NULL in sorted output")
		}
	}
	if !sawNull {
		t.Fatal("expected NULLs in output")
	}
}
