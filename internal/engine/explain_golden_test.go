package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/expr"
	"vectorwise/internal/physical"
	"vectorwise/internal/sql"
	"vectorwise/internal/types"
)

// goldenDB holds every table shape the golden corpus plans over: a
// vectorwise table of two row groups loaded sorted on k (clustered windows,
// dictionary-coded strings, a NULLable DOUBLE and VARCHAR), a small
// INSERTed vectorwise table and a HEAP table.
func goldenDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE big (k BIGINT NOT NULL, g INTEGER NOT NULL, v DOUBLE, s VARCHAR NOT NULL, n VARCHAR)`)
	rows := 2 * colstore.BlockRows
	err := db.LoadBatchFunc("big", func(emit func([]types.Value) error) error {
		for i := 0; i < rows; i++ {
			v := types.NewFloat64(float64(i%100) * 0.5)
			if i%7 == 0 {
				v = types.NewNull(types.KindFloat64)
			}
			n := types.NewString([]string{"x", "y", "z"}[i%3])
			if i%5 == 0 {
				n = types.NewNull(types.KindString)
			}
			if err := emit([]types.Value{types.NewInt64(int64(i)), types.NewInt32(int32(i % 4)), v,
				types.NewString([]string{"a", "b", "c"}[i%3]), n}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE small (u BIGINT NOT NULL, w BIGINT, label VARCHAR NOT NULL)`)
	mustExec(t, db, `INSERT INTO small VALUES (1, 10, 'one'), (2, NULL, 'two'), (3, 30, 'three')`)
	mustExec(t, db, `CREATE TABLE hp (k BIGINT NOT NULL PRIMARY KEY, v INTEGER) WITH STRUCTURE=HEAP`)
	mustExec(t, db, `INSERT INTO hp VALUES (1, 5), (2, NULL)`)
	return db
}

// goldenParallel are statements the corpus plans serially and again under
// PARALLEL 2, over the two-group table, so the parallel node kinds appear.
var goldenParallel = []string{
	`SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(k), AVG(v), AVG(k) FROM big GROUP BY g`,
	`SELECT k, v FROM big WHERE k < 20000 ORDER BY v DESC, k`,
	`SELECT k, v FROM big ORDER BY v, k DESC LIMIT 5`,
	`SELECT COUNT(*), SUM(big.v) FROM big JOIN small ON big.k = small.u`,
	`SELECT MIN(v), AVG(k) FROM big WHERE k > 100`,
	`SELECT big.k, small.w FROM big LEFT JOIN small ON big.k = small.u WHERE big.v > 40`,
	`SELECT COUNT(*) FROM big WHERE k IN (SELECT u FROM small)`,
}

// goldenCorpus is a fixed set of statements whose EXPLAIN PHYSICAL output
// covers every physical node kind.
var goldenCorpus = []string{
	`SELECT k, v FROM big WHERE k >= 100 AND k < 200`,
	`SELECT COUNT(*) FROM big WHERE s = 'b'`,
	`SELECT COUNT(v) FROM big`,
	`SELECT COUNT(*) FROM big`,
	`SELECT COUNT(s) FROM big`,
	`SELECT COUNT(n), MIN(k) FROM big WHERE n IS NULL`,
	`SELECT k, v FROM hp WHERE k > 1`,
	`SELECT name, value FROM sys.metrics WHERE value > 0`,
	`SELECT small.u, big.v FROM small LEFT JOIN big ON small.u = big.k`,
	`SELECT small.label, COUNT(big.v) FROM small LEFT JOIN big ON small.u = big.k GROUP BY small.label`,
	`SELECT u FROM small WHERE u IN (SELECT k FROM big)`,
	`SELECT u FROM small WHERE EXISTS (SELECT k FROM hp)`,
	`SELECT u FROM small WHERE NOT EXISTS (SELECT k FROM hp)`,
	`SELECT u FROM small WHERE w NOT IN (SELECT v FROM hp)`,
	`SELECT u FROM small WHERE u NOT IN (SELECT k FROM hp)`,
	`SELECT small.u, hp.k FROM small CROSS JOIN hp`,
	`SELECT u, w FROM small ORDER BY w DESC, u`,
	`SELECT u, w FROM small ORDER BY w LIMIT 2`,
	`SELECT u FROM small ORDER BY u LIMIT 2 OFFSET 1`,
	`SELECT 1, 'x', NULL`,
	`UPDATE small SET w = w + 1 WHERE u = 2`,
	`DELETE FROM small WHERE w IS NULL`,
	`UPDATE hp SET v = v * 2 WHERE k > 1`,
	`DELETE FROM hp WHERE v IS NULL`,
}

// explainGolden renders the corpus, each statement followed by its
// EXPLAIN PHYSICAL text, and checks that every plan computes in each of its
// operators.
func explainGolden(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	emit := func(q string) {
		b.WriteString("-- " + q + "\n")
		b.WriteString(mustExec(t, db, "EXPLAIN PHYSICAL "+q).Text)
		b.WriteString("\n")
		checkComputes(t, q, physicalPlan(t, db, q), true, true)
	}
	for _, q := range goldenCorpus {
		emit(q)
	}
	for _, q := range goldenParallel {
		emit(q)
		emit(q + " WITH (PARALLEL=2)")
	}
	return b.String()
}

// The physical plans of a fixed corpus are pinned: a change to how plans are
// made must leave them byte-identical, or update the golden on purpose.
func TestExplainPhysicalGolden(t *testing.T) {
	got := explainGolden(t, goldenDB(t))
	path := filepath.Join("testdata", "explain_physical.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s\n\nfull output:\n%s", path, i+1, gl[i], wl[i], got)
			}
		}
		t.Fatalf("%s: %d lines, want %d; full output:\n%s", path, len(gl), len(wl), got)
	}
}

// physicalPlan compiles q as EXPLAIN PHYSICAL does and returns its plan.
func physicalPlan(t *testing.T, db *DB, q string) physical.Node {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	match := func(table string, where sql.ExprNode, set []sql.SetClause) (*compiled, error) {
		e, err := db.entry(table)
		if err != nil {
			return nil, err
		}
		m, err := db.compileMatch(e, where, set)
		if err != nil {
			return nil, err
		}
		return m.compiled, nil
	}
	var c *compiled
	switch s := st.(type) {
	case *sql.SelectStmt:
		c, err = db.compileSelect(s)
	case *sql.UpdateStmt:
		c, err = match(s.Table, s.Where, s.Set)
	case *sql.DeleteStmt:
		c, err = match(s.Table, s.Where, nil)
	default:
		t.Fatalf("%s: not a query", q)
	}
	if err != nil {
		t.Fatal(err)
	}
	return c.phys
}

// checkComputes fails on an operator of q's plan that computes nothing: a
// Select right over a Select, or, below the root's spine (the Selects,
// Sorts, TopNs, Limits and order-preserving merges down to the first
// Project), a Project that nothing reads or that passes all of its child's
// columns through. read tells whether n's parent reads any column of n.
func checkComputes(t *testing.T, q string, n physical.Node, spine, read bool) {
	t.Helper()
	reads := func(es ...expr.Expr) bool {
		for _, e := range es {
			if len(expr.Cols(e)) > 0 {
				return true
			}
		}
		return false
	}
	below, belowRead := false, true
	switch x := n.(type) {
	case *physical.Select:
		if _, ok := x.Child.(*physical.Select); ok {
			t.Errorf("%s: %s sits on %s", q, x.Line(), x.Child.Line())
		}
		below, belowRead = spine, read || reads(x.Pred)
	case *physical.Limit:
		below, belowRead = spine, read
	case *physical.Sort, *physical.TopN, *physical.XchgMerge:
		below = spine
	case *physical.Project:
		if !spine && !read {
			t.Errorf("%s: nothing reads %s", q, x.Line())
		}
		if !spine && x.PassesThrough() {
			t.Errorf("%s: %s passes its child's columns through", q, x.Line())
		}
		belowRead = reads(x.Exprs...)
	case *physical.HashAgg:
		belowRead = len(x.GroupCols) > 0
		for _, a := range x.Aggs {
			belowRead = belowRead || a.Col >= 0 || a.IndCol() >= 0
		}
	}
	for _, c := range n.Children() {
		checkComputes(t, q, c, below, belowRead)
	}
}
