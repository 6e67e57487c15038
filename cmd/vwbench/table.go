package main

import (
	"log"

	"vectorwise/internal/colstore"
	"vectorwise/internal/pdt"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// colstoreTable wraps a single-column int64 table for the E5 merge-scan
// measurement.
type colstoreTable struct {
	tab *colstore.Table
}

func (t *colstoreTable) build(rows int) {
	t.tab = colstore.NewTable(types.NewSchema(types.Col("v", types.Int64)))
	ap := t.tab.NewAppender()
	for i := 0; i < rows; i++ {
		if err := ap.AppendRow([]types.Value{types.NewInt64(int64(i))}); err != nil {
			log.Fatal(err)
		}
	}
	if err := ap.Close(); err != nil {
		log.Fatal(err)
	}
}

// mergeScan drains the table through a PDT merger and asserts the row
// count.
func mergeScan(t *colstoreTable, ops []pdt.Op, rows int) {
	sc, err := t.tab.NewScanner([]int{0}, vec.DefaultSize)
	if err != nil {
		log.Fatal(err)
	}
	m := pdt.NewMergerOps(sc, ops, []int{0})
	b := vec.NewBatch(m.Kinds(), 0)
	var total int
	for {
		_, n, done, err := m.Next(b)
		if err != nil {
			log.Fatal(err)
		}
		if done {
			break
		}
		total += n
	}
	if total != rows {
		log.Fatalf("merge scan rows %d, want %d", total, rows)
	}
}
