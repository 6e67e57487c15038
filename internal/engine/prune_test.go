package engine

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/datagen"
	"vectorwise/internal/types"
)

// tpchDB loads lineitem (two row groups and a bit) and orders the way the
// benchmark does.
func tpchDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, datagen.LineitemDDL)
	mustExec(t, db, datagen.OrdersDDL)
	sf := (float64(2*colstore.BlockRows+500) + 0.5) / datagen.RowsPerSF
	for table, gen := range map[string]func(float64, int64, func([]types.Value) error) error{
		"lineitem": datagen.Lineitems, "orders": datagen.Orders} {
		err := db.LoadBatchFunc(table, func(emit func([]types.Value) error) error { return gen(sf, 1, emit) })
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// scanLines returns the Scan/ParallelScan lines of a physical plan up to
// their column lists (annotations and kinds cut off).
func scanLines(plan string) []string {
	return regexp.MustCompile(`(?:Parallel|Heap)?Scan\('\w+', \[[^\]]*\] @ \[[0-9 ]*\]`).FindAllString(plan, -1)
}

// The line grammar is a contract with bench/replay.go, which parses it to
// replay scans; the lists are the columns each statement names.
func TestExplainPhysicalShowsPrunedScans(t *testing.T) {
	db := tpchDB(t)
	const joinGroup = `SELECT o_orderpriority, COUNT(*), SUM(l_quantity) FROM lineitem JOIN orders ` +
		`ON l_orderkey = o_orderkey GROUP BY o_orderpriority ORDER BY o_orderpriority`
	li, ord := `('lineitem', [l_orderkey l_quantity] @ [0 2]`, `Scan('orders', [o_orderkey o_orderpriority] @ [0 4]`
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{`SELECT COUNT(*), SUM(l_quantity) FROM lineitem`, []string{`Scan('lineitem', [l_quantity] @ [2]`}},
		// COUNT(col) reads the NULL indicator only.
		{`SELECT COUNT(l_comment) FROM lineitem`, []string{`Scan('lineitem', [l_comment$null] @ [11]`}},
		// Nothing is read: the narrowest NOT NULL column stands in for the row count.
		{`SELECT COUNT(*) FROM lineitem`, []string{`Scan('lineitem', [l_quantity] @ [2]`}},
		{`SELECT COUNT(*) FROM lineitem WHERE l_returnflag = 'R' AND l_shipmode = 'AIR'`,
			[]string{`Scan('lineitem', [l_returnflag l_shipmode] @ [6 9]`}},
		{`SELECT * FROM orders`, []string{
			`Scan('orders', [o_orderkey o_custkey o_totalprice o_orderdate o_orderpriority] @ [0 1 2 3 4]`}},
		{joinGroup, []string{`Scan` + li, ord}},
		{joinGroup + ` WITH (PARALLEL=2)`, []string{ord, `ParallelScan` + li, `ParallelScan` + li}},
	} {
		got := scanLines(explainPhysical(t, db, c.sql))
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s\n got scans %q\nwant scans %q", c.sql, got, c.want)
		}
	}
	// Pruning runs in the rewriter: the bound and the optimized plan list
	// every column (ranges numbered in the full schema), the physical plan
	// the pruned list.
	const all = "Scan(lineitem:vectorwise, [l_orderkey, l_partkey, l_quantity, l_extendedprice, l_discount, l_tax, " +
		"l_returnflag, l_linestatus, l_shipdate, l_shipmode, l_comment]"
	text := mustExec(t, db, `EXPLAIN SELECT SUM(l_tax) FROM lineitem WHERE l_quantity < 3`).Text
	for _, want := range []string{
		all + ")",
		all + ", ranges=[$2 in [-inf,3]])",
		"Scan('lineitem', [l_quantity l_tax] @ [2 5], filters=[col2 in [-inf,3]])",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN lacks %q:\n%s", want, text)
		}
	}
}

// A scan nothing reads from, over a table whose columns are all NULLable,
// reads one value column — not its indicator too — and still sees every
// row, NULL rows included: with pending deltas, after CHECKPOINT, with
// deltas over a checkpointed table, and on a HEAP table.
func TestUnreadScanOverNullableColumnsReadsOneColumn(t *testing.T) {
	const rows = `(1, 'a'), (NULL, NULL), (3, NULL), (NULL, 'd')`
	for _, c := range []struct {
		name, structure, setup string
		n                      int64
		scan                   string
	}{
		{"pending deltas", "", "", 4, "Scan('u', [k] @ [0]"},
		{"checkpointed", "", "CHECKPOINT u", 4, "Scan('u', [k] @ [0]"},
		{"deltas over checkpointed", "", "CHECKPOINT u; INSERT INTO u VALUES (NULL, NULL), (6, 'f')", 6, "Scan('u', [k] @ [0]"},
		{"heap", " WITH STRUCTURE=HEAP", "", 4, "HeapScan('u', [k] @ [0]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := Open()
			mustExec(t, db, `CREATE TABLE u (k BIGINT, w VARCHAR)`+c.structure)
			mustExec(t, db, `INSERT INTO u VALUES `+rows)
			for _, stmt := range strings.Split(c.setup, "; ") {
				if stmt != "" {
					mustExec(t, db, stmt)
				}
			}
			if got := scanLines(explainPhysical(t, db, `SELECT COUNT(*) FROM u`)); len(got) != 1 || got[0] != c.scan {
				t.Errorf("COUNT(*) scans %q, want %q", got, c.scan)
			}
			if got := mustExec(t, db, `SELECT COUNT(*) FROM u`).Rows[0][0].Int64(); got != c.n {
				t.Errorf("COUNT(*) = %d, want %d", got, c.n)
			}
			if phys := explainPhysical(t, db, `DELETE FROM u`); !strings.Contains(phys, c.scan+", +$rid)") {
				t.Errorf("EXPLAIN PHYSICAL DELETE, want %s, +$rid):\n%s", c.scan, phys)
			}
			if got := mustExec(t, db, `DELETE FROM u`).Affected; got != c.n {
				t.Errorf("DELETE affected %d rows, want %d", got, c.n)
			}
			if got := mustExec(t, db, `SELECT COUNT(*) FROM u`).Rows[0][0].Int64(); got != 0 {
				t.Errorf("after DELETE, COUNT(*) = %d", got)
			}
		})
	}
}

var decodedRe = regexp.MustCompile(`Scan\([^\n]*decoded=(\d+) bytes cols=(\d+)/(\d+)`)

// profileDecoded runs PROFILE q and sums the decoded bytes its scan lines
// report, returning the cols=k/N of the first.
func profileDecoded(t *testing.T, db *DB, q string) (bytes int64, cols string) {
	t.Helper()
	text := mustExec(t, db, "PROFILE "+q).Text
	ms := decodedRe.FindAllStringSubmatch(text, -1)
	if len(ms) == 0 {
		t.Fatalf("no scan line reports decoded bytes:\n%s", text)
	}
	for _, m := range ms {
		n, _ := strconv.ParseInt(m[1], 10, 64)
		bytes += n
	}
	return bytes, ms[0][2] + "/" + ms[0][3]
}

// With pending deltas the stable scanner beneath the PDT mergers is built
// over the pruned column set: a one-column query over base + deltas decodes
// exactly that column's blocks, before and after the deltas arrive, and the
// engine-wide counter moves by what PROFILE reports.
func TestMergedScanDecodesOnlyProjectedColumns(t *testing.T) {
	db := tpchDB(t)
	store, err := db.Store("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	// The encoded size of every column, straight from the stable blocks.
	stable := store.Stable()
	colBytes := make([]int64, stable.Schema().Len())
	for g := 0; g < stable.NumBlocks(); g++ {
		frame, err := stable.EncodeGroup(g)
		if err != nil {
			t.Fatal(err)
		}
		payloads, err := colstore.DecodeGroupPayloads(frame, len(colBytes))
		if err != nil {
			t.Fatal(err)
		}
		for c, p := range payloads {
			colBytes[c] += int64(len(p))
		}
	}
	var all int64
	for _, n := range colBytes {
		all += n
	}
	const q = `SELECT SUM(l_quantity) FROM lineitem`
	if got, cols := profileDecoded(t, db, q); got != colBytes[2] || cols != "1/12" {
		t.Fatalf("delta-free: decoded %d bytes of cols=%s, want %d of 1/12", got, cols, colBytes[2])
	}
	// Deltas on the projected column and on pruned ones.
	mustExec(t, db, `UPDATE lineitem SET l_quantity = 51 WHERE l_orderkey = 3`)
	mustExec(t, db, `UPDATE lineitem SET l_comment = NULL, l_tax = 0.5 WHERE l_orderkey = 5`)
	mustExec(t, db, `DELETE FROM lineitem WHERE l_orderkey = 7`)
	mustExec(t, db, `INSERT INTO lineitem VALUES (900000, 1, 9, 1.5, 0.1, 0.2, 'A', 'F', DATE '1995-01-01', 'AIR', NULL)`)
	if store.PendingOps() == 0 {
		t.Fatal("no pending deltas")
	}
	counter := func() float64 { return metricValue(t, db, "colstore_bytes_decompressed_total") }
	before := counter()
	merged := mustExec(t, db, q)
	if delta := int64(counter() - before); delta != colBytes[2] {
		t.Fatalf("merged scan of one column decoded %d bytes, want %d (all twelve are %d)", delta, colBytes[2], all)
	}
	if got, cols := profileDecoded(t, db, q); got != colBytes[2] || cols != "1/12" {
		t.Fatalf("merged: PROFILE reports %d bytes of cols=%s, want %d of 1/12", got, cols, colBytes[2])
	}
	if got, _ := profileDecoded(t, db, q+` WITH (PARALLEL=2)`); got != colBytes[2] {
		t.Fatalf("merged parallel: PROFILE reports %d bytes, want %d", got, colBytes[2])
	}
	before = counter()
	mustExec(t, db, `SELECT COUNT(l_comment) FROM lineitem`)
	if delta := int64(counter() - before); delta != colBytes[11] {
		t.Fatalf("merged COUNT(nullable) decoded %d bytes, want the indicator's %d", delta, colBytes[11])
	}
	// Base + deltas must equal the rebuilt relation.
	mustExec(t, db, `CHECKPOINT lineitem`)
	sameRows(t, merged, mustExec(t, db, q))
}

// A projected expression nothing reads is never evaluated: pruning drops
// the Project that computes it, so a CAST that would overflow raises no
// error there. Read, the same CAST still raises.
func TestUnreadProjectionIsNotEvaluated(t *testing.T) {
	db := Open()
	for _, structure := range []string{"VECTORWISE", "HEAP"} {
		mustExec(t, db, `CREATE TABLE t_`+structure+` (d DOUBLE NOT NULL) WITH STRUCTURE=`+structure)
		mustExec(t, db, `INSERT INTO t_`+structure+` VALUES (1.0e300)`)
		from := ` FROM t_` + structure
		for _, q := range []string{
			`SELECT COUNT(*) FROM (SELECT CAST(d AS INTEGER)` + from + `) s`,
			`SELECT COUNT(*)` + from + ` WHERE EXISTS (SELECT CAST(d AS INTEGER)` + from + `)`,
		} {
			if res := mustExec(t, db, q); len(res.Rows) != 1 || res.Rows[0][0].String() != "1" {
				t.Errorf("%s: got %v, want 1", q, res.Rows)
			}
		}
		if err := execErr(t, db, `SELECT CAST(d AS INTEGER)`+from); !strings.Contains(err.Error(), "arithmetic overflow") {
			t.Errorf("read CAST: %v, want arithmetic overflow", err)
		}
	}
}
