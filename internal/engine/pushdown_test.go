package engine

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/exec"
	"vectorwise/internal/types"
)

// rangeDB builds a vectorwise table whose k column is block-clustered
// (monotonically increasing), spanning the given number of row groups.
func rangeDB(t *testing.T, blocks int) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE pts (k BIGINT NOT NULL, v DOUBLE NOT NULL)`)
	rows := blocks * colstore.BlockRows
	err := db.LoadBatchFunc("pts", func(emit func([]types.Value) error) error {
		for i := 0; i < rows; i++ {
			if err := emit([]types.Value{
				types.NewInt64(int64(i)),
				types.NewFloat64(float64(i) * 0.5),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var skippedRe = regexp.MustCompile(`skipped=(\d+)/(\d+) groups`)

// profileSkips runs PROFILE <q> and returns the scan's skipped/total groups;
// ok=false when the profile carries no skip counters (the PDT-merge path).
func profileSkips(t *testing.T, db *DB, q string) (skipped, total int, ok bool) {
	t.Helper()
	res := mustExec(t, db, "PROFILE "+q)
	m := skippedRe.FindStringSubmatch(res.Text)
	if m == nil {
		return 0, 0, false
	}
	skipped, _ = strconv.Atoi(m[1])
	total, _ = strconv.Atoi(m[2])
	return skipped, total, true
}

func sameRows(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for c := range a.Rows[i] {
			if a.Rows[i][c].String() != b.Rows[i][c].String() {
				t.Fatalf("row %d col %d: %v vs %v", i, c, a.Rows[i][c], b.Rows[i][c])
			}
		}
	}
}

func TestRangePushdownSkipsBlocks(t *testing.T) {
	const blocks = 12
	db := rangeDB(t, blocks)
	lo := 5 * colstore.BlockRows
	hi := lo + 99
	rangeQ := `SELECT k, v FROM pts WHERE k BETWEEN ` + strconv.Itoa(lo) +
		` AND ` + strconv.Itoa(hi) + ` ORDER BY k`
	// (a) the profile reports pruned row groups on the Scan operator.
	skipped, total, ok := profileSkips(t, db, rangeQ)
	if !ok {
		t.Fatal("delta-free scan reported no skip counters")
	}
	if total != blocks {
		t.Fatalf("total groups = %d, want %d", total, blocks)
	}
	if skipped != blocks-1 {
		t.Fatalf("skipped = %d/%d, want %d", skipped, total, blocks-1)
	}
	// (b) results match the same query with skipping disabled (k+0 is not
	// sargable, so no range annotation reaches the scan).
	withSkip := mustExec(t, db, rangeQ)
	noSkip := mustExec(t, db, `SELECT k, v FROM pts WHERE k + 0 BETWEEN `+
		strconv.Itoa(lo)+` AND `+strconv.Itoa(hi)+` ORDER BY k`)
	if len(withSkip.Rows) != 100 {
		t.Fatalf("range query returned %d rows, want 100", len(withSkip.Rows))
	}
	sameRows(t, withSkip, noSkip)

	// (c) an UPDATE and DELETE force the PDT-merge path (filters disabled);
	// the same query must stay exact.
	mustExec(t, db, `UPDATE pts SET v = -1 WHERE k = `+strconv.Itoa(lo+10))
	mustExec(t, db, `DELETE FROM pts WHERE k = `+strconv.Itoa(lo+20))
	after := mustExec(t, db, rangeQ)
	if len(after.Rows) != 99 {
		t.Fatalf("after UPDATE/DELETE: %d rows, want 99", len(after.Rows))
	}
	seenUpdated := false
	for _, r := range after.Rows {
		k := r[0].I64
		if k == int64(lo+20) {
			t.Fatal("deleted row still visible")
		}
		if k == int64(lo+10) {
			seenUpdated = true
			if r[1].F64 != -1 {
				t.Fatalf("updated row v = %v, want -1", r[1].F64)
			}
		}
	}
	if !seenUpdated {
		t.Fatal("updated row missing")
	}
	// The merge path must not skip (every stable row must flow): no skip
	// counters appear because the source is the PDT merger, not a scanner.
	if skipped, _, ok := profileSkips(t, db, rangeQ); ok && skipped != 0 {
		t.Fatalf("PDT-merge path skipped %d groups, want 0", skipped)
	}
}

func TestExplainPhysicalShowsScanFilters(t *testing.T) {
	db := rangeDB(t, 2)
	res := mustExec(t, db, `EXPLAIN PHYSICAL SELECT k FROM pts WHERE k >= 100 AND k < 200`)
	if !strings.Contains(res.Text, `Scan('pts', [k] @ [0], filters=[col0 in [100,200]], groups=[0,1)/2)`) {
		t.Fatalf("scan filters not rendered:\n%s", res.Text)
	}
}

func TestParallelRangePushdownMatchesSerial(t *testing.T) {
	db := rangeDB(t, 8)
	q := `SELECT COUNT(*), MIN(k), MAX(k) FROM pts WHERE k >= ` +
		strconv.Itoa(3*colstore.BlockRows) + ` AND k < ` + strconv.Itoa(4*colstore.BlockRows)
	serial := mustExec(t, db, q)
	parallel := mustExec(t, db, q+` WITH (PARALLEL=4)`)
	sameRows(t, serial, parallel)
	if serial.Rows[0][0].I64 != int64(colstore.BlockRows) {
		t.Fatalf("count = %v", serial.Rows[0][0])
	}
}

// Regression for the old compile-vs-run delta race: the retired partition
// hint consulted PendingOps at compile time, so a delta committed before
// Instantiate collapsed a partitioned plan to serial-on-part-0. Morsel
// scheduling decides at run time instead — a pending delta must neither
// shrink the plan's degree below 2 nor lose rows.
func TestParallelScanDeltaKeepsDegree(t *testing.T) {
	db := rangeDB(t, 4)
	stable := 4 * colstore.BlockRows
	// Commit a delta ("concurrent INSERT"): the snapshot now carries PDTs.
	mustExec(t, db, `INSERT INTO pts VALUES (`+strconv.Itoa(stable)+`, 0.0)`)

	// The plan keeps its parallel shape — degree stays > 1 despite deltas.
	q := `SELECT COUNT(*), MAX(k) FROM pts WITH (PARALLEL=4)`
	exp := mustExec(t, db, `EXPLAIN PHYSICAL `+q)
	if !regexp.MustCompile(`Xchg\(degree=4\)`).MatchString(exp.Text) ||
		!strings.Contains(exp.Text, `ParallelScan('pts', [k] @ [0], worker 3/4, queue=0)`) {
		t.Fatalf("delta forced the plan serial:\n%s", exp.Text)
	}

	// The run-time morsel source serves the delta-merged stream through one
	// worker; the result must still include every row.
	res := mustExec(t, db, q)
	if got := res.Rows[0][0].I64; got != int64(stable+1) {
		t.Fatalf("parallel count with delta = %d, want %d", got, stable+1)
	}
	if got := res.Rows[0][1].I64; got != int64(stable) {
		t.Fatalf("parallel max with delta = %d, want %d", got, stable)
	}

	// Direct check of the run-time decision: the session's morsel source
	// degrades to a single serial stream exactly one worker can claim.
	session := newQuerySession(db, context.Background())
	defer session.close()
	src, err := session.MorselSource("pts", []int{0}, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumMorsels() != 0 {
		t.Fatalf("delta snapshot offered %d morsels, want serial fallback", src.NumMorsels())
	}
	scan := exec.NewMorselScan([]types.Kind{types.KindInt64}, new(int), 0, 1, "Scan",
		func(int) (exec.MorselSource, error) { return src, nil })
	rows, err := exec.Collect(exec.NewCtx(context.Background()), scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != stable+1 {
		t.Fatalf("serial fallback saw %d rows, want %d (stable + delta)", len(rows), stable+1)
	}

	// And once the delta is checkpointed into stable storage, the same
	// session API serves real morsels again.
	mustExec(t, db, `CHECKPOINT pts`)
	session2 := newQuerySession(db, context.Background())
	defer session2.close()
	src2, err := session2.MorselSource("pts", []int{0}, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src2.NumMorsels() < 4 {
		t.Fatalf("flushed table offers %d morsels, want >= 4", src2.NumMorsels())
	}
}

// The groups the clustered window prunes count once per scan, whatever its
// degree: worker 0 carries them, so the workers of a PARALLEL=2 scan sum to
// the serial scan's skipped=4/8.
func TestSkipAccountingSerialEqualsParallel(t *testing.T) {
	db := rangeDB(t, 8)
	q := `SELECT COUNT(*) FROM pts WHERE k BETWEEN ` + strconv.Itoa(2*colstore.BlockRows) +
		` AND ` + strconv.Itoa(6*colstore.BlockRows-1)
	sum := func(q string) (skipped, total int) {
		t.Helper()
		res := mustExec(t, db, "PROFILE "+q)
		for _, m := range skippedRe.FindAllStringSubmatch(res.Text, -1) {
			s, _ := strconv.Atoi(m[1])
			n, _ := strconv.Atoi(m[2])
			skipped, total = skipped+s, total+n
		}
		return skipped, total
	}
	if s, n := sum(q); s != 4 || n != 8 {
		t.Fatalf("serial scan: skipped=%d/%d, want 4/8", s, n)
	}
	par := q + ` WITH (PARALLEL=2)`
	if exp := mustExec(t, db, "EXPLAIN PHYSICAL "+par); !strings.Contains(exp.Text, "Xchg(degree=2)") {
		t.Fatalf("query did not parallelize:\n%s", exp.Text)
	}
	if s, n := sum(par); s != 4 || n != 8 {
		t.Fatalf("parallel workers sum to skipped=%d/%d, want 4/8", s, n)
	}
	if got := mustExec(t, db, par).Rows[0][0].I64; got != 4*colstore.BlockRows {
		t.Fatalf("count = %d, want %d", got, 4*colstore.BlockRows)
	}
}
