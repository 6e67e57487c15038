package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/types"
)

func ptrInt64(v int64) *types.Value {
	x := types.NewInt64(v)
	return &x
}

// clusterCSV writes a CSV of rows (k, v, label) whose k values are a fixed
// pseudo-random permutation of [0, rows) — deterministically unsorted, so a
// plain COPY interleaves every row group while a clustered COPY must sort.
// Every 10th row's v is NULL (empty field) to exercise the NULL path.
func clusterCSV(t *testing.T, rows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < rows; i++ {
		k := (i * 7919) % rows // 7919 is prime and coprime to rows
		v := strconv.FormatFloat(float64(k)*0.5, 'g', -1, 64)
		if i%10 == 3 {
			v = ""
		}
		fmt.Fprintf(f, "%d,%s,label%d\n", k, v, k%7)
	}
	return path
}

func clusterDB(t *testing.T, table string) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE `+table+` (k BIGINT NOT NULL, v DOUBLE, label VARCHAR NOT NULL)`)
	return db
}

// (a) A clustered load produces sorted storage: tight, disjoint per-group
// min/max summaries and a persisted clustered marker on the sort column.
func TestClusteredCopyProducesSortedTightGroups(t *testing.T) {
	const blocks = 3
	rows := blocks * colstore.BlockRows
	csv := clusterCSV(t, rows)
	db := clusterDB(t, "t")
	res := mustExec(t, db, `COPY t FROM '`+csv+`' ORDER BY k`)
	if res.Affected != int64(rows) {
		t.Fatalf("loaded %d rows, want %d", res.Affected, rows)
	}

	e, err := db.entry("t")
	if err != nil {
		t.Fatal(err)
	}
	stable := e.store.Stable()
	if !stable.Clustered(0) {
		t.Fatal("sort column lost its clustered marker")
	}
	if n := stable.NumBlocks(); n != blocks {
		t.Fatalf("table spans %d groups, want %d", n, blocks)
	}
	// Tight by construction: group g holds exactly [g*BlockRows, (g+1)*BlockRows).
	for g := 0; g < blocks; g++ {
		lo, hi := stable.ClusteredWindow([]colstore.RangeFilter{{
			Col: 0,
			Lo:  ptrInt64(int64(g * colstore.BlockRows)),
			Hi:  ptrInt64(int64(g*colstore.BlockRows + 10)),
		}})
		if lo != g || hi != g+1 {
			t.Fatalf("group window for group %d range = [%d,%d), want [%d,%d)", g, lo, hi, g, g+1)
		}
	}
	// The stream really is globally sorted.
	sorted := mustExec(t, db, `SELECT MIN(k), MAX(k), COUNT(*) FROM t`)
	if sorted.Rows[0][0].I64 != 0 || sorted.Rows[0][1].I64 != int64(rows-1) ||
		sorted.Rows[0][2].I64 != int64(rows) {
		t.Fatalf("min/max/count = %v", sorted.Rows[0])
	}
}

// (b) A serial range query on the clustered column prunes to the group
// window and PROFILE reports near-perfect skipping, including bytes.
func TestClusteredRangeQueryPrunesToWindow(t *testing.T) {
	const blocks = 5
	rows := blocks * colstore.BlockRows
	csv := clusterCSV(t, rows)
	db := clusterDB(t, "t")
	mustExec(t, db, `COPY t FROM '`+csv+`' ORDER BY k`)

	lo := 2 * colstore.BlockRows
	q := `SELECT COUNT(*) FROM t WHERE k BETWEEN ` + strconv.Itoa(lo) +
		` AND ` + strconv.Itoa(lo+99)
	skipped, total, ok := profileSkips(t, db, q)
	if !ok {
		t.Fatal("clustered scan reported no skip counters")
	}
	if total != blocks || skipped != blocks-1 {
		t.Fatalf("skipped = %d/%d, want %d/%d", skipped, total, blocks-1, blocks)
	}
	res := mustExec(t, db, "PROFILE "+q)
	if !regexp.MustCompile(`skipped=\d+/\d+ groups \(\d+ bytes\)`).MatchString(res.Text) {
		t.Fatalf("profile missing skipped-bytes counter:\n%s", res.Text)
	}
	// The plan itself carries the window annotation.
	exp := mustExec(t, db, `EXPLAIN `+q)
	if !regexp.MustCompile(`groups=\[2,3\)/5`).MatchString(exp.Text) {
		t.Fatalf("plan missing clustered window annotation:\n%s", exp.Text)
	}

	// The morsel source offers only window groups — parallel scans never
	// even see the pruned ones.
	session := newQuerySession(db, context.Background())
	defer session.close()
	src, err := session.MorselSource("t", []int{0}, 0, 4, []colstore.RangeFilter{{
		Col: 0, Lo: ptrInt64(int64(lo)), Hi: ptrInt64(int64(lo + 99)),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if src.NumMorsels() != 1 {
		t.Fatalf("morsel source offered %d morsels, want 1 (the window group)", src.NumMorsels())
	}
	parallel := mustExec(t, db, q+` WITH (PARALLEL=4)`)
	if parallel.Rows[0][0].I64 != 100 {
		t.Fatalf("parallel windowed count = %v, want 100", parallel.Rows[0][0])
	}
}

// (c) Clustered and unclustered layouts are semantically identical — same
// query results before and after UPDATE/DELETE deltas.
func TestClusteredLayoutMatchesUnclustered(t *testing.T) {
	const blocks = 3
	rows := blocks * colstore.BlockRows
	csv := clusterCSV(t, rows)
	db := clusterDB(t, "clu")
	mustExec(t, db, `CREATE TABLE unc (k BIGINT NOT NULL, v DOUBLE, label VARCHAR NOT NULL)`)
	mustExec(t, db, `COPY clu FROM '`+csv+`' ORDER BY k`)
	mustExec(t, db, `COPY unc FROM '`+csv+`'`)

	queries := []string{
		`SELECT COUNT(*), MIN(k), MAX(k), SUM(v) FROM %s`,
		`SELECT k, v, label FROM %s WHERE k BETWEEN 100 AND 300 ORDER BY k`,
		`SELECT label, COUNT(*) FROM %s WHERE v IS NULL GROUP BY label ORDER BY label`,
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range queries {
			a := mustExec(t, db, fmt.Sprintf(q, "clu"))
			b := mustExec(t, db, fmt.Sprintf(q, "unc"))
			sameRows(t, a, b)
			_ = stage
		}
	}
	check("loaded")

	// Deltas over the clustered table must merge exactly like any other.
	for _, tbl := range []string{"clu", "unc"} {
		mustExec(t, db, `UPDATE `+tbl+` SET v = -5 WHERE k = 150`)
		mustExec(t, db, `DELETE FROM `+tbl+` WHERE k = 200`)
	}
	check("after deltas")
	got := mustExec(t, db, `SELECT v FROM clu WHERE k = 150`)
	if got.Rows[0][0].F64 != -5 {
		t.Fatalf("updated clustered row v = %v, want -5", got.Rows[0][0])
	}
}

// COPY ... ORDER BY guards: non-empty targets and unknown columns fail
// cleanly instead of producing an interleaved "clustered" table.
func TestClusteredCopyGuards(t *testing.T) {
	csv := clusterCSV(t, 100)
	db := clusterDB(t, "t")
	mustExec(t, db, `INSERT INTO t VALUES (1, 1.0, 'x')`)
	execErr(t, db, `COPY t FROM '`+csv+`' ORDER BY k`)
	mustExec(t, db, `CREATE TABLE t2 (k BIGINT NOT NULL, v DOUBLE, label VARCHAR NOT NULL)`)
	execErr(t, db, `COPY t2 FROM '`+csv+`' ORDER BY nope`)
	mustExec(t, db, `CREATE TABLE h (k BIGINT NOT NULL, v DOUBLE, label VARCHAR NOT NULL) WITH STRUCTURE=HEAP`)
	execErr(t, db, `COPY h FROM '`+csv+`' ORDER BY k`)
}
