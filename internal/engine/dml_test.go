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
	for _, structure := range []string{"", " WITH STRUCTURE=HEAP"} {
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

func lineitemDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE lineitem (l_orderkey BIGINT NOT NULL, l_partkey BIGINT NOT NULL,
		l_quantity DOUBLE NOT NULL, l_comment VARCHAR)`)
	mustExec(t, db, `INSERT INTO lineitem VALUES (7, 1, 2.0, 'a'), (7, 2, 3.0, NULL), (8, 3, 4.0, 'c')`)
	return db
}

// EXPLAIN of an UPDATE/DELETE prints the plan of its row search: pruned to
// the columns WHERE and SET touch, position column projected, range pushed.
func TestExplainDML(t *testing.T) {
	db := lineitemDB(t)
	const upd = `UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = 7`
	text := mustExec(t, db, `EXPLAIN `+upd).Text
	for _, want := range []string{
		"Scan(lineitem:vectorwise, [l_orderkey, l_partkey, l_quantity, l_comment, $rid])",
		"Scan(lineitem:vectorwise, [l_orderkey, l_quantity, $rid], ranges=[$0 in [7,7]])",
		"Scan('lineitem', [l_orderkey, l_quantity, $rid], ranges=[$0 in [7,7]])",
		"Scan('lineitem', [l_orderkey l_quantity] @ [0 2], +$rid, filters=[col0 in [7,7]])",
		"Project($rid=$rid, l_quantity=l_quantity)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN %s lacks %q:\n%s", upd, want, text)
		}
	}
	phys := mustExec(t, db, `EXPLAIN PHYSICAL DELETE FROM lineitem WHERE l_comment IS NULL`).Text
	if strings.Contains(phys, "logical plan") ||
		!strings.Contains(phys, "Scan('lineitem', [l_comment l_comment$null] @ [3 4], +$rid)") {
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

	mustExec(t, db, `CREATE TABLE h (a BIGINT NOT NULL) WITH STRUCTURE=HEAP`)
	if err := execErr(t, db, `EXPLAIN DELETE FROM h WHERE a = 1`); !strings.Contains(err.Error(), "vectorwise") {
		t.Errorf("EXPLAIN DELETE on a heap table: %v", err)
	}
	execErr(t, db, `EXPLAIN INSERT INTO h VALUES (1)`)
}

// UPDATE and DELETE are queries to the monitor: text, plan, phase spans and
// the affected-row count, failed ones included.
func TestDMLIsMonitored(t *testing.T) {
	db := lineitemDB(t)
	const upd = `UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = 7`
	mustExec(t, db, upd)
	mustExec(t, db, `DELETE FROM lineitem WHERE l_partkey = 3`)
	execErr(t, db, `DELETE FROM lineitem WHERE 1 / (l_partkey - 1) > 0`)

	hist := db.Monitor.History()
	if len(hist) != 3 {
		t.Fatalf("monitor recorded %d queries, want 3", len(hist))
	}
	u := hist[0]
	if u.SQL != upd || u.Status != monitor.StatusDone || u.Rows != 2 {
		t.Errorf("UPDATE recorded as %+v", u)
	}
	if !strings.Contains(u.Plan, "+$rid") {
		t.Errorf("UPDATE's recorded plan: %q", u.Plan)
	}
	var phases []string
	for _, sp := range u.Spans {
		phases = append(phases, sp.Phase)
	}
	if got := strings.Join(phases, " "); got != "parse bind optimize xcompile rewrite build execute" {
		t.Errorf("UPDATE's spans: %s", got)
	}
	if d := hist[1]; d.Status != monitor.StatusDone || d.Rows != 1 {
		t.Errorf("DELETE recorded as %+v", d)
	}
	if f := hist[2]; f.Status != monitor.StatusFailed || !strings.Contains(f.Err, "division by zero") {
		t.Errorf("failed DELETE recorded as %+v", f)
	}
	res := mustExec(t, db, `SELECT rows FROM sys.queries WHERE status = 'done' ORDER BY id`)
	if len(res.Rows) < 2 || res.Rows[0][0].I64 != 2 || res.Rows[1][0].I64 != 1 {
		t.Errorf("sys.queries: %v", res.Rows)
	}
}

// CancelQuery reaches a running UPDATE, which then commits nothing.
func TestDMLCancellation(t *testing.T) {
	db := bigDB(t)
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
			t.Fatal("the UPDATE never became active")
		}
		time.Sleep(100 * time.Microsecond)
	}
	wg.Wait()
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("cancelled UPDATE returned %v", err)
	}
	hist := db.Monitor.History()
	if last := hist[len(hist)-1]; last.Status != monitor.StatusCancelled {
		t.Fatalf("status: %v", last.Status)
	}
	if store, _ := db.Store("big"); store.PendingOps() != 0 {
		t.Fatalf("cancelled UPDATE left %d deltas", store.PendingOps())
	}
}

// The rows a DML statement collects count against the query's memory budget.
func TestDMLMatchChargesBudget(t *testing.T) {
	db := itemsDB(t)
	ctx := WithQueryBudget(context.Background(), 2048)
	for _, stmt := range []string{`UPDATE items SET price = 1.0`, `DELETE FROM items`} {
		if _, err := db.Exec(ctx, stmt); !errors.Is(err, exec.ErrBudget) {
			t.Fatalf("%s under a 2 KB budget: %v, want ErrBudget", stmt, err)
		}
	}
	if n := mustExec(t, db, `SELECT COUNT(*) FROM items WHERE price = 1.0`).Rows[0][0].I64; n != 0 {
		t.Fatalf("over-budget UPDATE changed %d rows", n)
	}
	// A search that keeps few rows fits, however many it scans.
	if res, err := db.Exec(ctx, `UPDATE items SET price = 1.0 WHERE id < 5`); err != nil || res.Affected != 5 {
		t.Fatalf("selective UPDATE under the budget: %v, %v", res, err)
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
		db := lineitemDB(t)
		e, _ := db.entry("lineitem")
		m, err := db.compileMatch(e.meta, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.execute(context.Background(), db, e.store, "DELETE FROM lineitem",
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
