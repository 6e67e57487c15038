package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vectorwise/internal/monitor"
	"vectorwise/internal/types"
)

// bigDB builds a table large enough that queries take a while.
func bigDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE big (a BIGINT NOT NULL, b BIGINT NOT NULL)`)
	if err := db.LoadBatchFunc("big", func(emit func([]types.Value) error) error {
		for i := 0; i < 2_000_000; i++ {
			if err := emit([]types.Value{
				types.NewInt64(int64(i)), types.NewInt64(int64(i % 1000)),
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

// The paper's "query cancellation" requirement end-to-end: a running SQL
// query (parallel, even) is killed via the monitor and the session gets a
// clean error quickly.
func TestSQLQueryCancellation(t *testing.T) {
	db := bigDB(t)
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := db.Exec(context.Background(),
			`SELECT b, COUNT(*), SUM(a) FROM big GROUP BY b WITH (PARALLEL=4)`)
		errCh <- err
	}()
	// Wait until the query registers, then cancel it.
	var id int64
	deadline := time.Now().Add(5 * time.Second)
	for {
		if act := db.Monitor.Active(); len(act) > 0 {
			id = act[0].ID
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query never became active")
		}
		time.Sleep(time.Millisecond)
	}
	if !db.CancelQuery(id) {
		t.Fatal("cancel refused")
	}
	wg.Wait()
	err := <-errCh
	if err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Monitor recorded the cancellation.
	hist := db.Monitor.History()
	last := hist[len(hist)-1]
	if last.Status != monitor.StatusCancelled {
		t.Fatalf("status: %v", last.Status)
	}
}

func TestContextTimeoutCancelsQuery(t *testing.T) {
	db := bigDB(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := db.Exec(ctx, `SELECT a, COUNT(*) FROM big GROUP BY a`)
	if err == nil {
		t.Fatal("timed-out query succeeded")
	}
}

func TestVectorSizeOptionEndToEnd(t *testing.T) {
	db := itemsDB(t)
	a := mustExec(t, db, `SELECT grp, COUNT(*) FROM items GROUP BY grp ORDER BY grp`)
	b := mustExec(t, db, `SELECT grp, COUNT(*) FROM items GROUP BY grp ORDER BY grp WITH (VECTORSIZE=7)`)
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range a.Rows {
		if a.Rows[i][1].Int64() != b.Rows[i][1].Int64() {
			t.Fatalf("row %d differs", i)
		}
	}
}

// COPY stops on a cancelled context whichever bulk-load path it takes —
// heap inserts, the appender into an empty table, a transaction into a
// non-empty one — and leaves the table as it was.
func TestCopyHonoursCancellation(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE h (a BIGINT NOT NULL) WITH STRUCTURE=HEAP`)
	mustExec(t, db, `CREATE TABLE e (a BIGINT NOT NULL)`)
	mustExec(t, db, `CREATE TABLE n (a BIGINT NOT NULL)`)
	mustExec(t, db, `INSERT INTO n VALUES (0)`)
	csv := filepath.Join(t.TempDir(), "a.csv")
	if err := os.WriteFile(csv, []byte("1\n2\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for table, want := range map[string]int64{"h": 0, "e": 0, "n": 1} {
		if _, err := db.Exec(ctx, `COPY `+table+` FROM '`+csv+`'`); !errors.Is(err, context.Canceled) {
			t.Errorf("COPY into %s: %v, want context.Canceled", table, err)
		}
		if got := mustExec(t, db, `SELECT COUNT(*) FROM `+table).Rows[0][0].I64; got != want {
			t.Errorf("%s holds %d rows after a cancelled COPY, want %d", table, got, want)
		}
	}
}
