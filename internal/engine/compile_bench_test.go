package engine

import (
	"testing"

	"vectorwise/internal/datagen"
	"vectorwise/internal/sql"
	"vectorwise/internal/types"
)

// compileCorpus is the shape of the benchmark's short statements: the
// wire_short point lookup and date-range statements, join_agg_sort's
// join_group and Q1, plus a Q6 whose bounds are constant expressions the
// optimizer folds.
var compileCorpus = []string{
	`SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, o_orderpriority FROM orders WHERE o_orderkey = 42`,
	`SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate BETWEEN DATE '1995-03-01' AND DATE '1995-03-03'`,
	`SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN DATE '1995-03-01' AND DATE '1995-03-03'`,
	`SELECT o_orderpriority, COUNT(*), SUM(l_quantity) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority ORDER BY o_orderpriority`,
	`SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), MIN(l_extendedprice), MAX(l_extendedprice) FROM lineitem ` +
		`WHERE l_shipdate <= DATE '1998-09-01' GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
	`SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' ` +
		`AND l_shipdate < DATE '1994-01-01' + 365 AND l_discount BETWEEN 0.06 - 0.01 AND 0.06 + 0.01 AND l_quantity < 24`,
}

// BenchmarkCompileSelect times bind → optimize → xcompile → rewrite → build
// of the corpus (parsed once, never run) over the datagen tables; one op
// compiles every statement.
func BenchmarkCompileSelect(b *testing.B) {
	db := Open()
	for _, ddl := range []string{datagen.LineitemDDL, datagen.OrdersDDL, datagen.CustomerDDL} {
		if _, err := db.Exec(b.Context(), ddl); err != nil {
			b.Fatal(err)
		}
	}
	sf := 4000.0 / datagen.RowsPerSF
	for table, gen := range map[string]func(float64, int64, func([]types.Value) error) error{
		"lineitem": datagen.Lineitems, "orders": datagen.Orders, "customer": datagen.Customers} {
		if err := db.LoadBatchFunc(table, func(emit func([]types.Value) error) error { return gen(sf, 1, emit) }); err != nil {
			b.Fatal(err)
		}
	}
	stmts := make([]*sql.SelectStmt, len(compileCorpus))
	for i, q := range compileCorpus {
		st, err := sql.Parse(q)
		if err != nil {
			b.Fatal(err)
		}
		stmts[i] = st.(*sql.SelectStmt)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, st := range stmts {
			if _, err := db.compileSelect(st); err != nil {
				b.Fatal(err)
			}
		}
	}
}
