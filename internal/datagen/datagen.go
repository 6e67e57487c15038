// Package datagen generates deterministic TPC-H-like data: the lineitem /
// orders / customer triple the paper's workloads revolve around, with the
// same column kinds, skew and cardinality knobs (a substitution for TPC-H
// dbgen).
package datagen

import (
	"fmt"
	"math/rand"

	"vectorwise/internal/types"
)

// RowsPerSF is the lineitem row count at scale factor 1 (TPC-H uses ~6M;
// the simulator keeps the same proportionality).
const RowsPerSF = 6_000_000

// ShipModes are the seven TPC-H ship modes (a classic PDICT column).
var ShipModes = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}

// ReturnFlags and LineStatuses drive the Q1-style grouping (≤6 groups).
var (
	ReturnFlags  = []string{"A", "N", "R"}
	LineStatuses = []string{"F", "O"}
)

// LineitemSchema returns the lineitem logical schema. l_comment is NULLable
// to exercise the NULL-decomposition machinery on wide scans.
func LineitemSchema() *types.Schema {
	return types.NewSchema(
		types.Col("l_orderkey", types.Int64),
		types.Col("l_partkey", types.Int64),
		types.Col("l_quantity", types.Int32),
		types.Col("l_extendedprice", types.Float64),
		types.Col("l_discount", types.Float64),
		types.Col("l_tax", types.Float64),
		types.Col("l_returnflag", types.String),
		types.Col("l_linestatus", types.String),
		types.Col("l_shipdate", types.Date),
		types.Col("l_shipmode", types.String),
		types.Col("l_comment", types.String.Null()),
	)
}

// LineitemDDL is the CREATE TABLE for lineitem.
const LineitemDDL = `CREATE TABLE lineitem (
	l_orderkey BIGINT NOT NULL,
	l_partkey BIGINT NOT NULL,
	l_quantity INTEGER NOT NULL,
	l_extendedprice DOUBLE NOT NULL,
	l_discount DOUBLE NOT NULL,
	l_tax DOUBLE NOT NULL,
	l_returnflag VARCHAR NOT NULL,
	l_linestatus VARCHAR NOT NULL,
	l_shipdate DATE NOT NULL,
	l_shipmode VARCHAR NOT NULL,
	l_comment VARCHAR)`

// OrdersDDL is the CREATE TABLE for orders.
const OrdersDDL = `CREATE TABLE orders (
	o_orderkey BIGINT NOT NULL PRIMARY KEY,
	o_custkey BIGINT NOT NULL,
	o_totalprice DOUBLE NOT NULL,
	o_orderdate DATE NOT NULL,
	o_orderpriority VARCHAR NOT NULL)`

// CustomerDDL is the CREATE TABLE for customer.
const CustomerDDL = `CREATE TABLE customer (
	c_custkey BIGINT NOT NULL PRIMARY KEY,
	c_name VARCHAR NOT NULL,
	c_mktsegment VARCHAR NOT NULL,
	c_acctbal DOUBLE NOT NULL)`

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

// epoch1992 is 1992-01-01 (TPC-H date range start).
var epoch1992 = types.DateFromYMD(1992, 1, 1)

// Lineitems streams rows for the given scale factor to emit. Deterministic
// for a (sf, seed) pair.
func Lineitems(sf float64, seed int64, emit func(row []types.Value) error) error {
	n := int(sf * RowsPerSF)
	rng := rand.New(rand.NewSource(seed))
	orders := n/4 + 1
	row := make([]types.Value, 11)
	for i := 0; i < n; i++ {
		qty := rng.Intn(50) + 1
		price := float64(rng.Intn(90000)+10000) / 100 * float64(qty)
		row[0] = types.NewInt64(int64(rng.Intn(orders)) + 1)
		row[1] = types.NewInt64(int64(rng.Intn(200000)) + 1)
		row[2] = types.NewInt32(int32(qty))
		row[3] = types.NewFloat64(price)
		row[4] = types.NewFloat64(float64(rng.Intn(11)) / 100)
		row[5] = types.NewFloat64(float64(rng.Intn(9)) / 100)
		row[6] = types.NewString(ReturnFlags[rng.Intn(len(ReturnFlags))])
		row[7] = types.NewString(LineStatuses[rng.Intn(len(LineStatuses))])
		row[8] = types.NewDate(epoch1992 + int32(rng.Intn(2557))) // ~7 years
		row[9] = types.NewString(ShipModes[rng.Intn(len(ShipModes))])
		if rng.Intn(10) == 0 {
			row[10] = types.NewNull(types.KindString)
		} else {
			row[10] = types.NewString(fmt.Sprintf("comment line %d", rng.Intn(1000)))
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// Orders streams order rows (¼ of lineitem count, matching orderkeys).
func Orders(sf float64, seed int64, emit func(row []types.Value) error) error {
	n := int(sf*RowsPerSF)/4 + 1
	rng := rand.New(rand.NewSource(seed + 1))
	customers := n/10 + 1
	row := make([]types.Value, 5)
	for i := 0; i < n; i++ {
		row[0] = types.NewInt64(int64(i) + 1)
		row[1] = types.NewInt64(int64(rng.Intn(customers)) + 1)
		row[2] = types.NewFloat64(float64(rng.Intn(500000)) / 100)
		row[3] = types.NewDate(epoch1992 + int32(rng.Intn(2557)))
		row[4] = types.NewString(priorities[rng.Intn(len(priorities))])
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// Customers streams customer rows.
func Customers(sf float64, seed int64, emit func(row []types.Value) error) error {
	n := (int(sf*RowsPerSF)/4+1)/10 + 1
	rng := rand.New(rand.NewSource(seed + 2))
	row := make([]types.Value, 4)
	for i := 0; i < n; i++ {
		row[0] = types.NewInt64(int64(i) + 1)
		row[1] = types.NewString(fmt.Sprintf("Customer#%09d", i+1))
		row[2] = types.NewString(segments[rng.Intn(len(segments))])
		row[3] = types.NewFloat64(float64(rng.Intn(1100000))/100 - 1000)
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}
