package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"vectorwise/internal/exec"
	"vectorwise/internal/monitor"
	"vectorwise/internal/txn"
	"vectorwise/internal/types"
)

// A WHERE (or SET) that fails on some row fails the statement, on both table
// structures; it must not quietly act on the rows that happened to evaluate.
func TestDMLErrorFailsStatementAndAppliesNothing(t *testing.T) {
	for _, structure := range structures {
		db := Open()
		mustExec(t, db, `CREATE TABLE t (a INTEGER NOT NULL, b INTEGER NOT NULL)`+structure)
		mustExec(t, db, `INSERT INTO t VALUES (1, 0), (2, 5), (3, 2147483647)`)
		before := allRows(t, db, `SELECT a, b FROM t ORDER BY a`)
		for _, tc := range []struct{ stmt, want string }{
			{`DELETE FROM t WHERE 10 / b > 1`, "division by zero"},
			{`DELETE FROM t WHERE b + 1 > 0`, "overflow"},
			{`UPDATE t SET a = 9 WHERE 10 / b > 1`, "division by zero"},
			{`UPDATE t SET a = 9 WHERE b + 1 > 0`, "overflow"},
			// The SET fails on the last row only: the first two stay as they were.
			{`UPDATE t SET b = b + 1`, "overflow"},
		} {
			err := execErr(t, db, tc.stmt)
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s%s: error %q, want one naming %q", tc.stmt, structure, err, tc.want)
			}
			if after := allRows(t, db, `SELECT a, b FROM t ORDER BY a`); after != before {
				t.Fatalf("%s%s failed but changed the table:\n%s", tc.stmt, structure, after)
			}
		}
		// The same predicates succeed once no row trips them.
		mustExec(t, db, `DELETE FROM t WHERE a <> 2`)
		if res := mustExec(t, db, `DELETE FROM t WHERE 10 / b > 1`); res.Affected != 1 {
			t.Fatalf("%s: affected %d, want 1", structure, res.Affected)
		}
	}
}

// structures are the two table structures, as the suffix of a CREATE TABLE.
var structures = []string{"", " WITH STRUCTURE=HEAP"}

// A heap UPDATE keeps the PRIMARY KEY unique and never loses a row: a new key
// that another row holds fails the statement, whether the rewritten row stays
// in its slot or has to move, and the table is left as it was. Keys may still
// move between the rows one statement rewrites.
func TestHeapUpdateKeepsPrimaryKey(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE h (id BIGINT NOT NULL PRIMARY KEY, s VARCHAR NOT NULL) WITH STRUCTURE=HEAP`)
	mustExec(t, db, `INSERT INTO h VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	before := allRows(t, db, `SELECT * FROM h ORDER BY id`)
	for _, stmt := range []string{
		`UPDATE h SET id = 1 WHERE id = 2`,
		`UPDATE h SET id = 3, s = 'a much longer string' WHERE id = 1`,
		`UPDATE h SET id = 9 WHERE id < 3`,
	} {
		if err := execErr(t, db, stmt); !strings.Contains(err.Error(), "duplicate key") {
			t.Errorf("%s: %v, want a duplicate key", stmt, err)
		}
		if after := allRows(t, db, `SELECT * FROM h ORDER BY id`); after != before {
			t.Fatalf("%s failed but changed the table:\n%s", stmt, after)
		}
	}
	mustExec(t, db, `UPDATE h SET id = 3 - id, s = s || ' (swapped)' WHERE id < 3`)
	if got, want := allRows(t, db, `SELECT * FROM h ORDER BY id`), "1,b (swapped)\n2,a (swapped)\n3,c\n"; got != want {
		t.Fatalf("after swapping keys 1 and 2: %q, want %q", got, want)
	}
	execErr(t, db, `INSERT INTO h VALUES (2, 'dup')`)
}

func lineitemDB(t *testing.T, structure string) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE lineitem (l_orderkey BIGINT NOT NULL, l_partkey BIGINT NOT NULL,
		l_quantity DOUBLE NOT NULL, l_comment VARCHAR)`+structure)
	mustExec(t, db, `INSERT INTO lineitem VALUES (7, 1, 2.0, 'a'), (7, 2, 3.0, NULL), (8, 3, 4.0, 'c')`)
	return db
}

// EXPLAIN of an UPDATE/DELETE prints the plan of its row search: pruned to
// the columns WHERE and SET touch (IS NULL reads the indicator only), row id
// projected, range pushed, new values computed.
func TestExplainDML(t *testing.T) {
	db := lineitemDB(t, "")
	const upd = `UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = 7`
	text := mustExec(t, db, `EXPLAIN `+upd).Text
	for _, want := range []string{
		"Scan(lineitem:vectorwise, [l_orderkey, l_partkey, l_quantity, l_comment, $rid])",
		"Scan(lineitem:vectorwise, [l_orderkey, l_partkey, l_quantity, l_comment, $rid], ranges=[$0 in [7,7]])",
		"Scan('lineitem', [l_orderkey l_quantity] @ [0 2], +$rid, filters=[col0 in [7,7]])",
		"Project($rid=$rid, l_quantity=l_quantity, $set_l_quantity=(l_quantity + 1))",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN %s lacks %q:\n%s", upd, want, text)
		}
	}
	phys := mustExec(t, db, `EXPLAIN PHYSICAL DELETE FROM lineitem WHERE l_comment IS NULL`).Text
	if strings.Contains(phys, "logical plan") ||
		!strings.Contains(phys, "Scan('lineitem', [l_comment$null] @ [4], +$rid)") {
		t.Errorf("EXPLAIN PHYSICAL DELETE:\n%s", phys)
	}

	// PROFILE runs the search and applies nothing.
	before := allRows(t, db, `SELECT * FROM lineitem`)
	prof := mustExec(t, db, `PROFILE `+upd).Text
	for _, want := range []string{"2 rows matched (not applied)", "== operator profile ==", "execute", "rows=3 batches=1"} {
		if !strings.Contains(prof, want) {
			t.Errorf("PROFILE %s lacks %q:\n%s", upd, want, prof)
		}
	}
	if after := allRows(t, db, `SELECT * FROM lineitem`); after != before {
		t.Fatalf("PROFILE UPDATE changed the table:\n%s", after)
	}
	if store, _ := db.Store("lineitem"); store.PendingOps() != 3 {
		t.Fatalf("PROFILE UPDATE left %d pending deltas, want the 3 inserts", store.PendingOps())
	}

	// A heap table's search is the same kind of plan over a HeapScan, whose
	// row id is the packed RowID; PROFILE applies nothing there either.
	mustExec(t, db, `CREATE TABLE h (a BIGINT NOT NULL, b VARCHAR) WITH STRUCTURE=HEAP`)
	mustExec(t, db, `INSERT INTO h VALUES (1, 'x'), (2, NULL)`)
	phys = mustExec(t, db, `EXPLAIN PHYSICAL DELETE FROM h WHERE a = 1`).Text
	if want := "  Select((a = 1)) :: [BIGINT, BIGINT]\n    HeapScan('h', [a] @ [0], +$rid) :: [BIGINT, BIGINT]\n"; !strings.Contains(phys, want) {
		t.Errorf("EXPLAIN PHYSICAL DELETE on a heap table lacks\n%s:\n%s", want, phys)
	}
	before = allRows(t, db, `SELECT * FROM h ORDER BY a`)
	prof = mustExec(t, db, `PROFILE UPDATE h SET b = 'y' WHERE b IS NULL OR a = 1`).Text
	for _, want := range []string{"2 rows matched (not applied)", "HeapScan('h', [a b b$null] @ [0 1 2], +$rid)", "rows=2 batches=1"} {
		if !strings.Contains(prof, want) {
			t.Errorf("PROFILE UPDATE on a heap table lacks %q:\n%s", want, prof)
		}
	}
	if after := allRows(t, db, `SELECT * FROM h ORDER BY a`); after != before {
		t.Fatalf("PROFILE UPDATE changed the heap table:\n%s", after)
	}
	execErr(t, db, `EXPLAIN INSERT INTO h VALUES (1)`)
}

// UPDATE and DELETE are queries to the monitor on both structures: text, plan,
// phase spans and the affected-row count, failed ones included.
func TestDMLIsMonitored(t *testing.T) {
	for _, structure := range structures {
		db := lineitemDB(t, structure)
		const upd = `UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = 7`
		mustExec(t, db, upd)
		mustExec(t, db, `DELETE FROM lineitem WHERE l_partkey = 3`)
		execErr(t, db, `DELETE FROM lineitem WHERE 1 / (l_partkey - 1) > 0`)

		hist := db.Monitor.History()
		if len(hist) != 3 {
			t.Fatalf("%s: monitor recorded %d queries, want 3", structure, len(hist))
		}
		u := hist[0]
		if u.SQL != upd || u.Status != monitor.StatusDone || u.Rows != 2 {
			t.Errorf("%s: UPDATE recorded as %+v", structure, u)
		}
		if !strings.Contains(u.Plan, "+$rid") {
			t.Errorf("%s: UPDATE's recorded plan: %q", structure, u.Plan)
		}
		var phases []string
		for _, sp := range u.Spans {
			phases = append(phases, sp.Phase)
		}
		if got := strings.Join(phases, " "); got != "parse bind optimize xcompile rewrite build execute" {
			t.Errorf("%s: UPDATE's spans: %s", structure, got)
		}
		if d := hist[1]; d.Status != monitor.StatusDone || d.Rows != 1 {
			t.Errorf("%s: DELETE recorded as %+v", structure, d)
		}
		if f := hist[2]; f.Status != monitor.StatusFailed || !strings.Contains(f.Err, "division by zero") {
			t.Errorf("%s: failed DELETE recorded as %+v", structure, f)
		}
		res := mustExec(t, db, `SELECT rows FROM sys.queries WHERE status = 'done' ORDER BY id`)
		if len(res.Rows) < 2 || res.Rows[0][0].I64 != 2 || res.Rows[1][0].I64 != 1 {
			t.Errorf("%s: sys.queries: %v", structure, res.Rows)
		}
	}
}

// CancelQuery reaches a running UPDATE, which then changes nothing.
func TestDMLCancellation(t *testing.T) {
	for _, structure := range structures {
		var db *DB
		if structure == "" {
			db = bigDB(t)
		} else {
			db = Open()
			mustExec(t, db, `CREATE TABLE big (a BIGINT NOT NULL, b BIGINT NOT NULL)`+structure)
			if err := db.LoadBatchFunc("big", func(emit func([]types.Value) error) error {
				for i := 0; i < 200_000; i++ {
					if err := emit([]types.Value{types.NewInt64(int64(i)), types.NewInt64(int64(i % 1000))}); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		before := allRows(t, db, `SELECT COUNT(*), SUM(b) FROM big`)
		var wg sync.WaitGroup
		wg.Add(1)
		errCh := make(chan error, 1)
		go func() {
			defer wg.Done()
			_, err := db.Exec(context.Background(), `UPDATE big SET b = b + 1 WHERE a + b >= 0`)
			errCh <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if act := db.Monitor.Active(); len(act) > 0 {
				if !db.CancelQuery(act[0].ID) {
					t.Fatal("cancel refused")
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the UPDATE never became active", structure)
			}
			time.Sleep(100 * time.Microsecond)
		}
		wg.Wait()
		if err := <-errCh; err == nil || !strings.Contains(err.Error(), "cancel") {
			t.Fatalf("%s: cancelled UPDATE returned %v", structure, err)
		}
		hist := db.Monitor.History()
		if last := hist[len(hist)-1]; last.Status != monitor.StatusCancelled {
			t.Fatalf("%s: status: %v", structure, last.Status)
		}
		if after := allRows(t, db, `SELECT COUNT(*), SUM(b) FROM big`); after != before {
			t.Fatalf("%s: cancelled UPDATE changed the table: %s, was %s", structure, after, before)
		}
		if store, err := db.Store("big"); err == nil && store.PendingOps() != 0 {
			t.Fatalf("cancelled UPDATE left %d deltas", store.PendingOps())
		}
	}
}

// The rows a DML statement collects count against the query's memory budget,
// on both structures.
func TestDMLMatchChargesBudget(t *testing.T) {
	for _, structure := range structures {
		db := Open()
		mustExec(t, db, `CREATE TABLE items (id BIGINT NOT NULL PRIMARY KEY, price DOUBLE, name VARCHAR NOT NULL)`+structure)
		var sb strings.Builder
		for i := 0; i < 100; i++ {
			fmt.Fprintf(&sb, "%s(%d, %d.5, 'item%d')", map[bool]string{true: ", ", false: ""}[i > 0], i, i, i%7)
		}
		mustExec(t, db, `INSERT INTO items VALUES `+sb.String())
		ctx := WithQueryBudget(context.Background(), 2048)
		for _, stmt := range []string{`UPDATE items SET price = 1.0`, `DELETE FROM items`} {
			if _, err := db.Exec(ctx, stmt); !errors.Is(err, exec.ErrBudget) {
				t.Fatalf("%s%s under a 2 KB budget: %v, want ErrBudget", stmt, structure, err)
			}
		}
		if n := mustExec(t, db, `SELECT COUNT(*) FROM items WHERE price = 1.0`).Rows[0][0].I64; n != 0 {
			t.Fatalf("%s: over-budget UPDATE changed %d rows", structure, n)
		}
		// A search that keeps few rows fits, however many it scans.
		if res, err := db.Exec(ctx, `UPDATE items SET price = 1.0 WHERE id < 3`); err != nil || res.Affected != 3 {
			t.Fatalf("%s: selective UPDATE under the budget: %v, %v", structure, res, err)
		}
	}
}

// The row search runs in the statement's own transaction: a commit that lands
// between the search and the statement's commit is a write-write conflict,
// and a checkpoint there makes the snapshot too old — both from Commit.
func TestDMLConflictsSurfaceFromCommit(t *testing.T) {
	for _, tc := range []struct {
		interloper string
		want       error
	}{
		{`UPDATE lineitem SET l_partkey = 99 WHERE l_orderkey = 7`, txn.ErrConflict},
		{`CHECKPOINT lineitem`, txn.ErrSnapshotTooOld},
	} {
		db := lineitemDB(t, "")
		e, _ := db.entry("lineitem")
		m, err := db.compileMatch(e, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.execute(context.Background(), db, "DELETE FROM lineitem",
			func(tx *txn.Txn, rows [][]types.Value) error {
				mustExec(t, db, tc.interloper)
				return tx.DeleteAt(rows[0][0].I64)
			})
		if !errors.Is(err, tc.want) {
			t.Errorf("after %s: %v, want %v", tc.interloper, err, tc.want)
		}
		if n := mustExec(t, db, `SELECT COUNT(*) FROM lineitem`).Rows[0][0].I64; n != 3 {
			t.Errorf("after %s: %d rows, want 3", tc.interloper, n)
		}
	}
}

// Positions come from the scan, so they are right in the middle of a table
// with every kind of delta pending: spot-check one statement's effect by key.
func TestDMLOverMixedDeltas(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (k BIGINT NOT NULL, v BIGINT)`)
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "%s(%d, %d)", map[bool]string{true: ", ", false: ""}[i > 0], i, i*10)
	}
	mustExec(t, db, `INSERT INTO t VALUES `+sb.String())
	mustExec(t, db, `CHECKPOINT t`)
	mustExec(t, db, `DELETE FROM t WHERE k < 10`)
	mustExec(t, db, `INSERT INTO t VALUES (100, NULL), (101, 5)`)
	mustExec(t, db, `UPDATE t SET v = NULL WHERE k = 20`)
	if res := mustExec(t, db, `UPDATE t SET v = k WHERE v IS NULL`); res.Affected != 2 {
		t.Fatalf("affected %d, want 2", res.Affected)
	}
	if res := mustExec(t, db, `DELETE FROM t WHERE k BETWEEN 15 AND 24 OR k = 101`); res.Affected != 11 {
		t.Fatalf("affected %d, want 11", res.Affected)
	}
	got := allRows(t, db, `SELECT COUNT(*), SUM(v), MIN(k), MAX(k) FROM t`)
	// 40 stable survivors minus k 15..24, plus k=100 with v=100.
	var sum int64 = 100
	for k := int64(10); k < 50; k++ {
		if k < 15 || k > 24 {
			sum += k * 10
		}
	}
	if want := fmt.Sprintf("31,%d,10,100\n", sum); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
