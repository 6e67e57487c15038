package colstore

import (
	"fmt"
	"testing"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// A range filter on a PDICT string column runs on the codes: the scanner
// returns only rows in range, through a selection vector whose row p sits at
// start+p, gathers their strings, skips vectors with no survivor, and counts
// the rows it dropped.
func TestScannerFiltersOnDictionaryCodes(t *testing.T) {
	rows := BlockRows*2 + 100
	tab := fillTable(t, rows) // mode cycles AIR, RAIL, SHIP
	rail := types.NewString("RAIL")
	sc, err := tab.NewMorselScanner([]int{0, 3}, 1000, RangeFilter{Col: 3, Lo: &rail, Hi: &rail})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	seekAll(t, sc, 1000, func(start int64, b *vec.Batch) {
		if b.Rows() == 0 || b.Sel == nil {
			t.Fatalf("batch at %d: %d rows, selection %v", start, b.Rows(), b.Sel != nil)
		}
		for i := range b.Rows() {
			p := b.RowIndex(i)
			id, mode := b.Vecs[0].I64[p], b.Vecs[1].Str[p]
			if id != start+int64(p) || mode != "RAIL" || id%3 != 1 {
				t.Fatalf("row %d of batch at %d: id %d, mode %q", p, start, id, mode)
			}
			got++
		}
	})
	if want := (rows + 1) / 3; got != want {
		t.Fatalf("%d rows in range, want %d", got, want)
	}
	if sc.CodeDroppedRows() != int64(rows-got) || sc.SkippedGroups() != 0 {
		t.Fatalf("dropped %d rows, skipped %d groups; want %d, 0", sc.CodeDroppedRows(), sc.SkippedGroups(), rows-got)
	}

	// A range between dictionary entries empties every group's interval: the
	// groups are skipped whole, like a min/max miss.
	b, q := types.NewString("B"), types.NewString("Q")
	sc, err = tab.NewMorselScanner([]int{0, 3}, 1000, RangeFilter{Col: 3, Lo: &b, Hi: &q})
	if err != nil {
		t.Fatal(err)
	}
	seekAll(t, sc, 1000, func(start int64, _ *vec.Batch) { t.Fatalf("batch at %d from an empty interval", start) })
	if sc.SkippedGroups() != 3 || sc.DecodedBytes() != 0 {
		t.Fatalf("skipped %d groups, decoded %d bytes; want 3, 0", sc.SkippedGroups(), sc.DecodedBytes())
	}
}

// A RAW string block has no codes: the scanner decodes it and returns every
// row, as without the filter.
func TestScannerRawStringsIgnoreCodeFilter(t *testing.T) {
	tab := NewTable(types.NewSchema(types.Col("s", types.String)))
	ap := tab.NewAppender()
	batch := vec.NewBatch([]types.Kind{types.KindString}, 300)
	batch.SetLen(300)
	for i := range 300 {
		batch.Vecs[0].Str[i] = fmt.Sprintf("unique-%04d", i)
	}
	if err := ap.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	lo := types.NewString("unique-0100")
	sc, err := tab.NewMorselScanner([]int{0}, 128, RangeFilter{Col: 0, Lo: &lo})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	seekAll(t, sc, 128, func(_ int64, b *vec.Batch) {
		if b.Sel != nil {
			t.Fatal("selection vector over a RAW block")
		}
		n += b.Rows()
	})
	if n != 300 || sc.CodeDroppedRows() != 0 {
		t.Fatalf("%d rows, %d dropped; want 300, 0", n, sc.CodeDroppedRows())
	}
}
