package exec

import (
	"context"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/pdt"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// fakeSource is a positional source whose every batch is scripted: the image
// position it reports, the values of its one BIGINT column, a selection
// vector, and whether it fills the caller's vectors or re-points the caller's
// batch at a batch of its own (as pdt.Merger does with `*b = *m.in`).
type fakeSource struct {
	script []fakeBatch
	at     int
	own    *vec.Batch
}

type fakeBatch struct {
	start   int64
	vals    []int64
	sel     []int32
	realias bool
}

func (f *fakeSource) Kinds() []types.Kind { return []types.Kind{types.KindInt64} }

func (f *fakeSource) Next(b *vec.Batch) (int64, int, bool, error) {
	if f.at == len(f.script) {
		return 0, 0, true, nil
	}
	fb := f.script[f.at]
	f.at++
	dst := b
	if fb.realias {
		f.own = vec.NewBatch(f.Kinds(), len(fb.vals))
		dst = f.own
	}
	dst.Vecs[0].Grow(len(fb.vals))
	dst.SetLen(len(fb.vals))
	copy(dst.Vecs[0].I64, fb.vals)
	dst.Sel = fb.sel
	if fb.realias {
		*b = *f.own
	}
	return fb.start, b.Rows(), false, nil
}

// ridRows drains a RID-projecting scan over src into (value, rid) pairs,
// reading logical row i at RowIndex(i) as every operator does.
func ridRows(t *testing.T, src pdt.BatchSource, vecSize int) [][2]int64 {
	t.Helper()
	scan := NewColScan(src.Kinds(), func(int) (pdt.BatchSource, error) { return src, nil })
	scan.ProjectRID()
	if k := scan.Kinds(); len(k) != len(src.Kinds())+1 || k[len(k)-1] != types.KindInt64 {
		t.Fatalf("kinds %v: want the source's plus BIGINT", k)
	}
	ctx := NewCtx(context.Background())
	ctx.VecSize = vecSize
	var out [][2]int64
	err := Run(ctx, scan, func(b *vec.Batch) error {
		if len(b.Vecs) != 2 {
			t.Fatalf("batch has %d vectors, want 2", len(b.Vecs))
		}
		for i := 0; i < b.Rows(); i++ {
			p := b.RowIndex(i)
			out = append(out, [2]int64{b.Vecs[0].I64[p], b.Vecs[1].I64[p]})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Row i of a selection is image position start+i, and its number is written
// where its values are: at RowIndex(i), not at i.
func TestColScanRIDFollowsSelectionVector(t *testing.T) {
	src := &fakeSource{script: []fakeBatch{
		{start: 100, vals: []int64{10, 11, 12, 13, 14, 15, 16, 17}, sel: []int32{1, 3, 6}},
		{start: 103, vals: []int64{20, 21, 22}},
		{start: 106, vals: []int64{30, 31, 32, 33}, sel: []int32{}}, // all deleted
		{start: 106, vals: []int64{40, 41}, sel: []int32{1}},
	}}
	got := ridRows(t, src, 4) // batches larger than the vector size must fit too
	want := [][2]int64{{11, 100}, {13, 101}, {16, 102}, {20, 103}, {21, 104}, {22, 105}, {41, 106}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got (value, rid) %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

// A source may fill the caller's vectors on one call and re-point the
// caller's batch at its own vectors on the next: the scan must pair the RID
// vector with whichever vectors the batch holds now.
func TestColScanRIDSurvivesRealiasedBatch(t *testing.T) {
	src := &fakeSource{script: []fakeBatch{
		{start: 0, vals: []int64{1, 2, 3}},
		{start: 3, vals: []int64{4, 5, 6, 7}, realias: true},
		{start: 7, vals: []int64{8, 9}},
		{start: 9, vals: []int64{10, 11, 12}, sel: []int32{0, 2}, realias: true},
		{start: 11, vals: []int64{13}},
	}}
	got := ridRows(t, src, 1024)
	wantVals := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13}
	if len(got) != len(wantVals) {
		t.Fatalf("got %d rows %v, want %d", len(got), got, len(wantVals))
	}
	for i, v := range wantVals {
		if got[i] != [2]int64{v, int64(i)} {
			t.Fatalf("row %d: got (value, rid) %v, want (%d, %d)", i, got[i], v, i)
		}
	}
}

// A delta-free scan that skips row groups (by min/max summaries, or by the
// clustered window) still numbers rows by their place in the whole table.
func TestColScanRIDAcrossSkippedRowGroups(t *testing.T) {
	tab := colstore.NewTable(types.NewSchema(types.Col("k", types.Int64)))
	ap := tab.NewAppender()
	const rows = 3*colstore.BlockRows + 100
	for i := 0; i < rows; i++ {
		if err := ap.AppendRow([]types.Value{types.NewInt64(int64(i) * 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		lo, hi int64 // bounds on k
		rows   int   // of the groups that survive, whole
	}{
		{"first group skipped", 2 * colstore.BlockRows, 2*colstore.BlockRows + 50, colstore.BlockRows},
		{"only the tail group", 2 * 3 * colstore.BlockRows, 1 << 40, 100},
		{"middle groups", 2*colstore.BlockRows + 2, 2*3*colstore.BlockRows - 2, 2 * colstore.BlockRows},
	} {
		lo, hi := types.NewInt64(tc.lo), types.NewInt64(tc.hi)
		sc, err := tab.NewScanner([]int{0}, 1000, colstore.RangeFilter{Col: 0, Lo: &lo, Hi: &hi})
		if err != nil {
			t.Fatal(err)
		}
		got := ridRows(t, sc, 1000)
		if len(got) != tc.rows {
			t.Fatalf("%s: %d rows emitted, want %d", tc.name, len(got), tc.rows)
		}
		for _, r := range got {
			if r[0] != r[1]*2 {
				t.Fatalf("%s: value %d carries rid %d, want %d", tc.name, r[0], r[1], r[0]/2)
			}
		}
	}
}
