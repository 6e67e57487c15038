package engine

import (
	"context"
	"strings"
	"testing"
)

// A constant expression computes what the same expression computes over
// columns: SELECT f(literals), SELECT f(columns) FROM a one-row table holding
// those literals, and the mixed forms return the same value or fail with the
// same error, on both structures; INSERT … VALUES (f(literals)) stores that
// value or fails alike.
func TestConstantFormMatchesColumnForm(t *testing.T) {
	cases := []struct {
		cols, row string   // the one-row table c
		typ       string   // the type of f's result
		forms     []string // f over literals, then over c's columns
		want      string   // the value, or "error: <message>"
	}{
		{"d DOUBLE", "1.0e300", "INTEGER",
			[]string{"CAST(1.0e300 AS INTEGER)", "CAST(d AS INTEGER)"}, "error: arithmetic overflow"},
		{"d DOUBLE", "-1.0e300", "BIGINT",
			[]string{"CAST(-1.0e300 AS BIGINT)", "CAST(d AS BIGINT)"}, "error: arithmetic overflow"},
		{"b BIGINT", "3000000000", "INTEGER",
			[]string{"CAST(3000000000 AS INTEGER)", "CAST(b AS INTEGER)"}, "error: arithmetic overflow"},
		{"i BIGINT, j BIGINT", "-9223372036854775807, 1", "BIGINT",
			[]string{"-(-9223372036854775807 - 1)", "-(i - j)"}, "error: arithmetic overflow"},
		{"i BIGINT", "-9223372036854775807 - 1", "BIGINT",
			[]string{"ABS(-9223372036854775807 - 1)", "ABS(i)"}, "error: arithmetic overflow"},
		{"k INTEGER", "-2147483648", "INTEGER",
			[]string{"ABS(CAST(-2147483648 AS INTEGER))", "ABS(k)", "-k"}, "error: arithmetic overflow"},
		{"k INTEGER", "-2147483647", "INTEGER",
			[]string{"-(CAST(-2147483647 AS INTEGER))", "-k", "ABS(k)"}, "2147483647"},
		{"s VARCHAR", "'abc'", "VARCHAR",
			[]string{"lpad('abc', -1, 'x')", "lpad(s, -1, 'x')", "rpad(s, 0, 'x')"}, ""},
		{"s VARCHAR, a BIGINT, n BIGINT", "'hello', 2, 9223372036854775807", "VARCHAR",
			[]string{"substr('hello', 2, 9223372036854775807)", "substr(s, a, n)", "substr(s, 2, 9223372036854775807)"}, "ello"},
		{"d DOUBLE, e DOUBLE", "0.0, 5e-324", "DOUBLE",
			[]string{"0.0 / 5e-324", "d / e", "d / 5e-324"}, "0"},
		{"a INTEGER, d DOUBLE, z DOUBLE", "1, 1.0, 0.0", "DOUBLE",
			[]string{"CASE WHEN 1 = 0 THEN 1.0 / 0.0 ELSE 2.0 END", "CASE WHEN a = 0 THEN d / z ELSE 2.0 END",
				"CASE WHEN a = 0 THEN d / 0.0 ELSE 2.0 END"}, "2"},
		{"a INTEGER, z INTEGER", "1, 0", "INTEGER",
			[]string{"1 / 0", "a / z"}, "error: division by zero"},
		{"k BIGINT, m BIGINT", "-9223372036854775807, -1", "BIGINT",
			[]string{"(-9223372036854775807 - 1) / -1", "(k - 1) / -1", "(k - 1) / m"}, "error: arithmetic overflow"},
		{"k INTEGER, m INTEGER", "-2147483647, -1", "INTEGER",
			[]string{"(CAST(-2147483647 AS INTEGER) - 1) / -1", "(k - 1) / -1", "(k - 1) / m"}, "error: arithmetic overflow"},
		{"k BIGINT, m BIGINT", "-9223372036854775807, -1", "BIGINT",
			[]string{"-9223372036854775807 / -1", "k / -1", "k / m"}, "9223372036854775807"},
		{"d DATE, n BIGINT", "DATE '1970-01-01', 3000000000", "DATE",
			[]string{"DATE '1970-01-01' + 3000000000", "d + n", "d + 3000000000", "d - -3000000000", "d - (0 - n)"}, "error: arithmetic overflow"},
		{"d DATE, k INTEGER", "DATE '2000-01-01', 2147483647", "DATE",
			[]string{"DATE '2000-01-01' + CAST(2147483647 AS INTEGER)", "d + k", "d - -k"}, "error: arithmetic overflow"},
		{"d DATE, k INTEGER", "DATE '1900-01-01', -2147483648", "DATE",
			[]string{"DATE '1900-01-01' - CAST(-2147483648 AS INTEGER)", "d - k"}, "5881510-07-13"},
		{"d DATE, n BIGINT", "DATE '2000-01-31', 4294967297", "DATE",
			[]string{"ADD_MONTHS(DATE '2000-01-31', 4294967297)", "ADD_MONTHS(d, n)", "ADD_MONTHS(d, 4294967297)"}, "error: arithmetic overflow"},
		{"d DATE, k INTEGER", "DATE '2000-01-01', 2000000000", "DATE",
			[]string{"ADD_MONTHS(DATE '2000-01-01', 2000000000)", "ADD_MONTHS(d, k)", "ADD_MONTHS(d, 2000000000)"}, "error: arithmetic overflow"},
		{"d DATE, k INTEGER", "DATE '2000-01-31', 1", "DATE",
			[]string{"ADD_MONTHS(DATE '2000-01-31', 1)", "ADD_MONTHS(d, k)", "ADD_MONTHS(d, 1)"}, "2000-02-29"},
	}
	outcome := func(db *DB, q string) string {
		res, err := db.Exec(context.Background(), q)
		if err != nil {
			return "error: " + err.Error()
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			return "unexpected result shape"
		}
		return res.Rows[0][0].String()
	}
	matches := func(got, want string) bool {
		if strings.HasPrefix(want, "error: ") {
			return strings.HasPrefix(got, "error: ") && strings.Contains(got, strings.TrimPrefix(want, "error: "))
		}
		return got == want
	}
	for _, structure := range structures {
		for _, c := range cases {
			db := Open()
			mustExec(t, db, `CREATE TABLE c (`+c.cols+`)`+structure)
			mustExec(t, db, `INSERT INTO c VALUES (`+c.row+`)`)
			for i, f := range c.forms {
				q := `SELECT ` + f
				if i > 0 {
					q += ` FROM c`
				}
				if got := outcome(db, q); !matches(got, c.want) {
					t.Errorf("%s%s: got %q, want %q", q, structure, got, c.want)
				}
			}
			mustExec(t, db, `CREATE TABLE r (v `+c.typ+`)`+structure)
			ins := `INSERT INTO r VALUES (` + c.forms[0] + `)`
			_, err := db.Exec(context.Background(), ins)
			stored := outcome(db, `SELECT v FROM r`)
			if err != nil {
				stored = "error: " + err.Error()
			}
			if !matches(stored, c.want) {
				t.Errorf("%s%s: stored %q, want %q", ins, structure, stored, c.want)
			}
		}
	}
}
