package engine

import (
	"fmt"
	"strings"
	"testing"
)

// A checked kernel (division, modulo) only sees the rows whose result needs
// it. CASE, COALESCE and IFNULL run each branch on the rows that take it, so
// 10 / b is never computed where the condition sends b = 0 elsewhere. SELECT,
// WHERE and UPDATE's SET agree, on both structures.
func TestCaseEvaluatesOnlyTheTakenBranch(t *testing.T) {
	for _, structure := range structures {
		db := Open()
		mustExec(t, db, `CREATE TABLE t (id INTEGER NOT NULL, w INTEGER, b INTEGER NOT NULL)`+structure)
		mustExec(t, db, `INSERT INTO t VALUES (1, 1, 0), (2, NULL, 5), (3, 4, 0)`)
		for _, tc := range []struct{ q, want string }{
			{`SELECT CASE WHEN b <> 0 THEN 10 / b ELSE 0 END FROM t ORDER BY id`, "0\n2\n0\n"},
			{`SELECT COALESCE(w, 10 / b) FROM t ORDER BY id`, "1\n2\n4\n"},
			{`SELECT IFNULL(w, 10 / b) FROM t ORDER BY id`, "1\n2\n4\n"},
			{`SELECT CASE WHEN b = 0 THEN w WHEN 10 / b > 1 THEN 10 % b ELSE 7 END FROM t ORDER BY id`, "1\n0\n4\n"},
			{`SELECT id FROM t WHERE CASE WHEN b <> 0 THEN 10 / b ELSE 0 END > 1`, "2\n"},
			{`SELECT id FROM t WHERE CASE WHEN b = 0 THEN FALSE ELSE 10 / b = 2 END`, "2\n"},
		} {
			if got := allRows(t, db, tc.q); got != tc.want {
				t.Errorf("%s%s: got %q, want %q", tc.q, structure, got, tc.want)
			}
		}
		mustExec(t, db, `UPDATE t SET w = CASE WHEN b <> 0 THEN 10 / b ELSE -1 END WHERE id < 3`)
		mustExec(t, db, `UPDATE t SET w = COALESCE(w, 10 / b)`)
		if got, want := allRows(t, db, `SELECT id, w FROM t ORDER BY id`), "1,-1\n2,2\n3,4\n"; got != want {
			t.Errorf("%s: after the UPDATEs got %q, want %q", structure, got, want)
		}
		// The branch a row takes still fails when it divides by zero.
		execErr(t, db, `SELECT CASE WHEN b = 0 THEN 10 / b ELSE 0 END FROM t`)
	}
}

// AND and OR run their right operand only on the rows their left operand
// leaves undecided, in SELECT as in WHERE, on both structures: the cast of
// 1e300 to INTEGER runs on no row, b being false and c true there. With the
// cast on the left it runs, and fails.
func TestLogicalOperandsRunOnlyOnUndecidedRows(t *testing.T) {
	for _, structure := range structures {
		db := Open()
		mustExec(t, db, `CREATE TABLE t (id INTEGER NOT NULL, b BOOLEAN NOT NULL, c BOOLEAN NOT NULL, d DOUBLE)`+structure)
		mustExec(t, db, `INSERT INTO t VALUES (1, false, true, 1.0e300), (2, true, false, 1.0), (3, false, true, NULL), (4, true, false, -2.0)`)
		for _, tc := range []struct{ pred, values, ids string }{
			{`b AND CAST(d AS INTEGER) > 0`, "false\ntrue\nfalse\nfalse\n", "2\n"},
			{`c OR CAST(d AS INTEGER) > 0`, "true\ntrue\ntrue\nfalse\n", "1\n2\n3\n"},
		} {
			q := `SELECT ` + tc.pred + ` FROM t ORDER BY id`
			if got := allRows(t, db, q); got != tc.values {
				t.Errorf("%s%s: got %q, want %q", q, structure, got, tc.values)
			}
			q = `SELECT id FROM t WHERE ` + tc.pred + ` ORDER BY id`
			if got := allRows(t, db, q); got != tc.ids {
				t.Errorf("%s%s: got %q, want %q", q, structure, got, tc.ids)
			}
		}
		execErr(t, db, `SELECT CAST(d AS INTEGER) > 0 AND b FROM t`)
		execErr(t, db, `SELECT id FROM t WHERE CAST(d AS INTEGER) > 0 OR c`)
	}
}

// A NULL dividend or divisor makes /, % and MOD NULL — the in-band value a
// NULL carries never reaches the divisor — over INTEGER, BIGINT and (for /)
// DOUBLE, in SELECT and in UPDATE's SET, on both structures. A zero divisor
// that is not NULL still fails.
func TestNullOperandNeverTripsCheckedKernel(t *testing.T) {
	for _, structure := range structures {
		for _, kind := range []string{"INTEGER", "BIGINT", "DOUBLE"} {
			db := Open()
			mustExec(t, db, fmt.Sprintf(`CREATE TABLE n (id INTEGER NOT NULL, a %s, b %s, r %s)%s`, kind, kind, kind, structure))
			mustExec(t, db, `INSERT INTO n VALUES (1, NULL, 0, 1), (2, 7, NULL, 1), (3, NULL, NULL, 1)`)
			ops := []string{"a / b", "b / a"}
			if kind != "DOUBLE" {
				ops = append(ops, "a % b", "MOD(a, b)")
			}
			nulls := strings.TrimSuffix(strings.Repeat("NULL,", len(ops)), ",") + "\n"
			for _, q := range []string{
				`SELECT ` + strings.Join(ops, ", ") + ` FROM n ORDER BY id`,
				`SELECT ` + strings.ReplaceAll(strings.Join(ops, ", "), "a", "10") + ` FROM n WHERE b IS NULL ORDER BY id`,
				`SELECT ` + strings.ReplaceAll(strings.Join(ops, ", "), "b", "0") + ` FROM n WHERE a IS NULL ORDER BY id`,
			} {
				res := mustExec(t, db, q)
				if got, want := allRows(t, db, q), strings.Repeat(nulls, len(res.Rows)); got != want || len(res.Rows) < 2 {
					t.Errorf("%s%s: %s: got %q, want %q", kind, structure, q, got, want)
				}
			}
			mustExec(t, db, `UPDATE n SET r = a / b`)
			if got := allRows(t, db, `SELECT COUNT(*) FROM n WHERE r IS NULL`); got != "3\n" {
				t.Errorf("%s%s: after SET r = a / b, %s rows hold NULL, want 3", kind, structure, got)
			}
			mustExec(t, db, `INSERT INTO n VALUES (4, 1, 0, 1)`)
			execErr(t, db, `SELECT a / b FROM n`)
			execErr(t, db, `UPDATE n SET r = a / b`)
		}
	}
}
