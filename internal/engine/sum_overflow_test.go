package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
)

// Integer SUM fails with an overflow error, as `+` does, instead of
// wrapping: on a vectorwise and a heap table, ungrouped, grouped and in a
// parallel plan. In the vectorwise table each row group holds one of the two
// addends, so two workers each sum a partial that is in range and only the
// final merge of the partial sums overflows.
func TestSumOverflowFails(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE v (g BIGINT NOT NULL, a BIGINT NOT NULL, i INTEGER NOT NULL)`)
	err := db.LoadBatchFunc("v", func(emit func([]types.Value) error) error {
		for r := 0; r < 2*colstore.BlockRows; r++ {
			a := int64(0)
			switch r {
			case 0:
				a = math.MaxInt64
			case colstore.BlockRows:
				a = 1
			}
			if err := emit([]types.Value{types.NewInt64(int64(r % 2)), types.NewInt64(a), types.NewInt32(1)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan := mustExec(t, db, `EXPLAIN PHYSICAL SELECT SUM(a) FROM v WITH (PARALLEL=2)`).Text; !strings.Contains(plan, "Xchg") {
		t.Fatalf("not a parallel plan: %s", plan)
	}
	mustExec(t, db, `CREATE TABLE h (g BIGINT NOT NULL, a BIGINT NOT NULL, i INTEGER NOT NULL) WITH STRUCTURE=HEAP`)
	mustExec(t, db, `INSERT INTO h VALUES (0, 9223372036854775807, 1), (0, 1, 1), (1, 0, 1)`)
	for _, table := range []string{"v", "h"} {
		for _, q := range []string{
			`SELECT SUM(a) FROM %s`,
			`SELECT g, SUM(a) FROM %s GROUP BY g`,
			`SELECT SUM(a) FROM %s WITH (PARALLEL=2)`,
			`SELECT g, SUM(a) FROM %s GROUP BY g WITH (PARALLEL=2)`,
			`SELECT COUNT(*), SUM(a) FROM %s WHERE i > 0`,
		} {
			q := fmt.Sprintf(q, table)
			if err := execErr(t, db, q); !errors.Is(err, primitives.ErrOverflow) {
				t.Fatalf("%s: %v, want %v", q, err, primitives.ErrOverflow)
			}
		}
		// The same sums over values that stay in range still run.
		q := fmt.Sprintf(`SELECT SUM(i), SUM(a - a) FROM %s WITH (PARALLEL=2)`, table)
		if res := mustExec(t, db, q); res.Rows[0][1].Int64() != 0 {
			t.Fatalf("%s: %v", q, res.Rows)
		}
		// AVG sums in float64, so the values that overflow SUM average
		// alike in a serial and a parallel plan.
		for _, q := range []string{`SELECT AVG(a) FROM %s`, `SELECT g, AVG(a) FROM %s GROUP BY g ORDER BY g`} {
			q := fmt.Sprintf(q, table)
			serial, parallel := mustExec(t, db, q).Rows, mustExec(t, db, q+` WITH (PARALLEL=2)`).Rows
			if fmt.Sprint(serial) != fmt.Sprint(parallel) {
				t.Fatalf("%s: %v serial, %v in parallel", q, serial, parallel)
			}
		}
	}
}
