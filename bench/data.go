package main

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"os"

	"vectorwise/internal/colstore"
	"vectorwise/internal/datagen"
	"vectorwise/internal/engine"
	"vectorwise/internal/types"
)

// The benchmark keeps its own plain-Go copy of every generated row: it is
// what the oracle computes expected answers from, independently of the
// engine's storage.

type liRow struct {
	orderkey, partkey    int64
	price, discount, tax float64
	quantity, shipdate   int32
	flag, status, mode   string
	comment              string
	commentNull          bool
}

type ordRow struct {
	key, custkey int64
	total        float64
	date         int32
	priority     string
}

type custRow struct {
	key     int64
	name    string
	segment string
	balance float64
}

type dataset struct {
	seed int64
	li   []liRow
	ord  []ordRow
	cust []custRow
}

func liFromValues(r []types.Value) liRow {
	return liRow{
		orderkey: r[0].Int64(), partkey: r[1].Int64(), quantity: r[2].Int32(),
		price: r[3].Float64(), discount: r[4].Float64(), tax: r[5].Float64(),
		flag: r[6].Str, status: r[7].Str, shipdate: int32(r[8].I64), mode: r[9].Str,
		comment: r[10].Str, commentNull: r[10].Null,
	}
}

func (r *liRow) values() []types.Value {
	c := types.NewString(r.comment)
	if r.commentNull {
		c = types.NewNull(types.KindString)
	}
	return []types.Value{
		types.NewInt64(r.orderkey), types.NewInt64(r.partkey), types.NewInt32(r.quantity),
		types.NewFloat64(r.price), types.NewFloat64(r.discount), types.NewFloat64(r.tax),
		types.NewString(r.flag), types.NewString(r.status), types.NewDate(r.shipdate),
		types.NewString(r.mode), c,
	}
}

func (r *ordRow) values() []types.Value {
	return []types.Value{types.NewInt64(r.key), types.NewInt64(r.custkey),
		types.NewFloat64(r.total), types.NewDate(r.date), types.NewString(r.priority)}
}

func (r *custRow) values() []types.Value {
	return []types.Value{types.NewInt64(r.key), types.NewString(r.name),
		types.NewString(r.segment), types.NewFloat64(r.balance)}
}

// gen streams the seed's rows of one of the three tables to emit (which may
// be nil) and records them in d. rows is the lineitem count; orders and
// customer follow from the same scale factor, so every lineitem's order key
// has its order and every order's customer key its customer.
func (d *dataset) gen(table string, rows int, emit func([]types.Value) error) error {
	sf := (float64(rows) + 0.5) / datagen.RowsPerSF // yields exactly rows lineitems
	var record func(r []types.Value)
	var stream func(float64, int64, func([]types.Value) error) error
	switch table {
	case "lineitem":
		d.li = make([]liRow, 0, rows)
		record, stream = func(r []types.Value) { d.li = append(d.li, liFromValues(r)) }, datagen.Lineitems
	case "orders":
		d.ord = d.ord[:0]
		record, stream = func(r []types.Value) {
			d.ord = append(d.ord, ordRow{key: r[0].Int64(), custkey: r[1].Int64(),
				total: r[2].Float64(), date: int32(r[3].I64), priority: r[4].Str})
		}, datagen.Orders
	case "customer":
		d.cust = d.cust[:0]
		record, stream = func(r []types.Value) {
			d.cust = append(d.cust, custRow{key: r[0].Int64(), name: r[1].Str,
				segment: r[2].Str, balance: r[3].Float64()})
		}, datagen.Customers
	default:
		return fmt.Errorf("no generator for table %q", table)
	}
	return stream(sf, d.seed, func(r []types.Value) error {
		record(r)
		if emit != nil {
			return emit(r)
		}
		return nil
	})
}

// load generates the named tables and bulk-loads them into db.
func (d *dataset) load(db *engine.DB, rows int, tables ...string) error {
	for _, t := range tables {
		if err := db.LoadBatchFunc(t, func(emit func([]types.Value) error) error {
			return d.gen(t, rows, emit)
		}); err != nil {
			return fmt.Errorf("loading %s: %w", t, err)
		}
	}
	return nil
}

// csvRecord renders a row the way COPY reads it back: empty field = NULL.
func csvRecord(dst []string, row []types.Value) []string {
	dst = dst[:0]
	for _, v := range row {
		if v.Null {
			dst = append(dst, "")
		} else {
			dst = append(dst, v.String())
		}
	}
	return dst
}

// csvSize is the number of bytes rows take as CSV: the benchmark's measure
// of "user bytes".
func csvSize(n int, row func(i int) []types.Value) int64 {
	var total int64
	var rec []string
	for i := 0; i < n; i++ {
		rec = csvRecord(rec, row(i))
		for _, f := range rec {
			total += int64(len(f)) + 1 // field + comma or newline
		}
	}
	return total
}

func (d *dataset) csvBytes() int64 {
	return csvSize(len(d.li), func(i int) []types.Value { return d.li[i].values() }) +
		csvSize(len(d.ord), func(i int) []types.Value { return d.ord[i].values() }) +
		csvSize(len(d.cust), func(i int) []types.Value { return d.cust[i].values() })
}

// writeCSV writes n rows to path and returns the bytes written.
func writeCSV(path string, n int, row func(i int) []types.Value) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	w := csv.NewWriter(bw)
	var rec []string
	for i := 0; i < n; i++ {
		rec = csvRecord(rec, row(i))
		if err := w.Write(rec); err != nil {
			f.Close()
			return 0, err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// groupsRows is the row count of g full row groups.
func groupsRows(g int) int { return g * colstore.BlockRows }
