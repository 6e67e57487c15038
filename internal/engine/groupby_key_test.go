package engine

import (
	"strings"
	"testing"
)

// A vectorwise table does not enforce its PRIMARY KEY, so grouping on the key
// and another column must not assume one row per key: duplicate keys with
// different names are two groups.
func TestGroupByUnenforcedKeyKeepsEveryGroupColumn(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id BIGINT PRIMARY KEY, name VARCHAR NOT NULL, v BIGINT) WITH STRUCTURE = VECTORWISE`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a', 10), (1, 'b', 20)`)
	for q, want := range map[string]string{
		`SELECT id, name, COUNT(*), SUM(v) FROM t GROUP BY id, name ORDER BY name`: "1,a,1,10\n1,b,1,20\n",
		`SELECT id, v, COUNT(*) FROM t GROUP BY id, v ORDER BY v`:                  "1,10,1\n1,20,1\n",
	} {
		if got := allRows(t, db, q); got != want {
			t.Errorf("%s:\n got %q\nwant %q", q, got, want)
		}
	}
}

// Grouping on a key and a NULLable VARCHAR or BOOLEAN works on both
// structures. A heap table enforces its key, so the second group column is
// demoted to a MAX, which takes NULLable columns of every kind; a
// vectorwise table groups on both columns.
func TestGroupByKeyAndNullableString(t *testing.T) {
	for _, structure := range []string{"VECTORWISE", "HEAP"} {
		db := Open()
		mustExec(t, db, `CREATE TABLE t (id BIGINT PRIMARY KEY, name VARCHAR, ok BOOLEAN) WITH STRUCTURE = `+structure)
		mustExec(t, db, `INSERT INTO t VALUES (1, 'a', TRUE), (2, NULL, NULL), (3, 'c', FALSE)`)
		for q, want := range map[string]string{
			`SELECT id, name, COUNT(*) FROM t GROUP BY id, name ORDER BY id`: "1,a,1\n2,NULL,1\n3,c,1\n",
			`SELECT id, ok, COUNT(*) FROM t GROUP BY id, ok ORDER BY id`:     "1,true,1\n2,NULL,1\n3,false,1\n",
		} {
			if got := allRows(t, db, q); got != want {
				t.Errorf("%s, %s:\n got %q\nwant %q", structure, q, got, want)
			}
			plan := mustExec(t, db, `EXPLAIN `+q).Text
			if demoted := strings.Contains(plan, "aggs=[{max 1}"); demoted != (structure == "HEAP") {
				t.Errorf("%s, %s: demoted to MAX %v:\n%s", structure, q, demoted, plan)
			}
		}
	}
}
