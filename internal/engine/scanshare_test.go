package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vectorwise/internal/exec"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// coopDB builds a DB whose table t spans several row groups, with a buffer
// pool deliberately smaller than the table so policy differences show.
func coopDB(t *testing.T, rows, bufferGroups int) *DB {
	t.Helper()
	db := Open()
	db.BufferGroups = bufferGroups
	ctx := context.Background()
	if _, err := db.Exec(ctx, `CREATE TABLE t (k BIGINT, v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadBatchFunc("t", func(emit func([]types.Value) error) error {
		for i := 0; i < rows; i++ {
			if err := emit([]types.Value{
				types.NewInt64(int64(i)),
				types.NewFloat64(float64(i) * 0.5),
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

const coopScanSQL = `SELECT COUNT(*), SUM(k), SUM(v) FROM t WITH (PARALLEL=2)`

// Concurrent full scans sharing the cooperative ABM must (a) return exactly
// the serial answer and (b) physically load far fewer groups than C
// independent scans would.
func TestConcurrentCoopScansShareLoadsAndStayExact(t *testing.T) {
	const rows, clients = 100000, 8 // 7 row groups
	db := coopDB(t, rows, 2)
	ctx := context.Background()
	serial, err := db.Exec(ctx, `SELECT COUNT(*), SUM(k), SUM(v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	groups := db.groupsAvailable(&scanspec.Spec{Table: "t"})
	if groups < 4 {
		t.Fatalf("table spans %d groups, want >= 4", groups)
	}

	var wg sync.WaitGroup
	results := make([]*Result, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = db.Exec(ctx, coopScanSQL)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i].Rows, serial.Rows) {
			t.Fatalf("client %d rows %v != serial %v", i, results[i].Rows, serial.Rows)
		}
	}
	_, coop, ok := db.ShareStats("t")
	if !ok {
		t.Fatal("no share built for t")
	}
	// The first client may scan alone through the LRU; everyone else should
	// have attached to the ABM and shared reads.
	if coop.Loads == 0 {
		t.Fatal("no cooperative loads at all — scans never attached")
	}
	naive := int64(clients * groups)
	if coop.Loads+coop.Hits == 0 || coop.Loads >= naive {
		t.Fatalf("coop loads=%d, not sublinear vs naive %d", coop.Loads, naive)
	}
	if coop.SharedLoads == 0 && coop.Hits == 0 {
		t.Fatalf("no sharing observed: %+v", coop)
	}
}

// Serial scans have company too, but a one-worker scan must deliver groups
// in image order: concurrent serial scans stay exact and in row order, and
// read through the LRU pool only — never through the cooperative ABM.
func TestConcurrentScansLRUOnlyStayExact(t *testing.T) {
	const rows, clients = 50000, 4
	db := coopDB(t, rows, 2)
	ctx := context.Background()
	// A registered scan gives every client company, the condition on which
	// a parallel scan would attach to the ABM.
	store, err := db.Store("t")
	if err != nil {
		t.Fatal(err)
	}
	_, release := db.shareFor("t", store.Stable()).beginScan()
	defer release()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := db.Exec(ctx, `SELECT k FROM t`)
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Rows) != rows {
				t.Errorf("rows = %d, want %d", len(res.Rows), rows)
				return
			}
			for i, r := range res.Rows {
				if r[0].Int64() != int64(i) {
					t.Errorf("row %d = %d (order broken)", i, r[0].Int64())
					return
				}
			}
		}()
	}
	wg.Wait()
	lru, coop, ok := db.ShareStats("t")
	if !ok {
		t.Fatal("no share built")
	}
	if coop.Loads != 0 {
		t.Fatalf("a serial scan loaded through the ABM: %+v", coop)
	}
	if lru.Loads == 0 {
		t.Fatal("LRU pool never loaded — scans bypassed the seam")
	}
}

// Serial scans (no PARALLEL) flow through the LRU pool too, preserving row
// order exactly.
func TestSerialScanThroughSharePreservesOrder(t *testing.T) {
	const rows = 40000
	db := coopDB(t, rows, 4)
	ctx := context.Background()
	res, err := db.Exec(ctx, `SELECT k FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rows {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r[0].Int64() != int64(i) {
			t.Fatalf("row %d = %d (order broken)", i, r[0].Int64())
		}
	}
	lru, _, ok := db.ShareStats("t")
	if !ok || lru.Loads == 0 {
		t.Fatalf("serial scan bypassed the LRU pool (stats %v ok=%v)", lru, ok)
	}
}

// A checkpoint replaces the stable snapshot; the share must be rebuilt for
// the new snapshot and queries must keep answering exactly.
func TestShareRebuiltAfterCheckpoint(t *testing.T) {
	db := coopDB(t, 40000, 4)
	ctx := context.Background()
	if _, err := db.Exec(ctx, `SELECT COUNT(*) FROM t`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `INSERT INTO t VALUES (1000000, 1.5)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `CHECKPOINT t`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(ctx, `SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int64() != 40001 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	db.shareMu.Lock()
	sh := db.shares["t"]
	db.shareMu.Unlock()
	store, _ := db.Store("t")
	if sh == nil || sh.stable != store.Stable() {
		t.Fatal("share not rebuilt onto the post-checkpoint snapshot")
	}
}

// The session layer's per-query budget must reach the executor through
// WithQueryBudget and stop oversized materializations.
func TestWithQueryBudgetStopsBigSort(t *testing.T) {
	db := coopDB(t, 50000, 4)
	ctx := WithQueryBudget(context.Background(), 1024)
	_, err := db.Exec(ctx, `SELECT k FROM t ORDER BY v DESC`)
	if !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// Same query unbudgeted succeeds.
	if _, err := db.Exec(context.Background(), `SELECT k FROM t ORDER BY v DESC LIMIT 5`); err != nil {
		t.Fatal(err)
	}
}

// sys.sessions surfaces whatever the session layer reports.
func TestSysSessionsTable(t *testing.T) {
	db := Open()
	res, err := db.Exec(context.Background(), `SELECT COUNT(*) FROM sys.sessions`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int64() != 0 {
		t.Fatal("sessions reported without a session layer")
	}
	db.SessionSource = func() []SessionInfo {
		return []SessionInfo{
			{ID: 1, State: "active", Queries: 3, Active: 1, Reserved: 1 << 20, AgeMS: 12.5},
			{ID: 2, State: "idle", Queries: 7},
		}
	}
	res, err = db.Exec(context.Background(),
		`SELECT id, state, active FROM sys.sessions ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if got := fmt.Sprintf("%v %v %v", res.Rows[0][0], res.Rows[0][1], res.Rows[0][2]); got != "1 active 1" {
		t.Fatalf("row 0 = %q", got)
	}
}
