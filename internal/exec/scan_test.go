package exec

import (
	"context"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// fakeSource is a positional source whose every batch is scripted: the image
// position it reports, the values of its one BIGINT column, a selection
// vector, and whether it fills the caller's vectors or re-points the caller's
// batch at a batch of its own (as pdt.Merger does with `*b = *m.in`). It
// serves the script [at, end): whole as a serial stream, or one batch per
// SeekGroup as a morsel scanner.
type fakeSource struct {
	script  []fakeBatch
	at, end int
	own     *vec.Batch
}

type fakeBatch struct {
	start   int64
	vals    []int64
	sel     []int32
	realias bool
}

func (f *fakeSource) Kinds() []types.Kind { return []types.Kind{types.KindInt64} }

func (f *fakeSource) SeekGroup(g int) { f.at, f.end = g, g+1 }

func (f *fakeSource) Next(b *vec.Batch) (int64, int, bool, error) {
	if f.at >= f.end {
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

// scriptMorsels offers each scripted batch as one morsel.
type scriptMorsels []fakeBatch

func (s scriptMorsels) NumMorsels() int { return len(s) }

func (s scriptMorsels) Worker() (MorselScanner, error) { return &fakeSource{script: s}, nil }

// ridRows drains a one-worker RID-projecting scan over src into (value, rid)
// pairs, reading logical row i at RowIndex(i) as every operator does.
func ridRows(t *testing.T, src MorselSource, vecSize int) [][2]int64 {
	t.Helper()
	scan := NewMorselScan([]types.Kind{types.KindInt64}, new(int), 0, 1, "Scan",
		func(int) (MorselSource, error) { return src, nil })
	scan.RID = true
	if k := scan.Kinds(); len(k) != 2 || k[1] != types.KindInt64 {
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

// checkRIDs drains src and compares its (value, rid) pairs with want.
func checkRIDs(t *testing.T, name string, src MorselSource, vecSize int, want [][2]int64) {
	t.Helper()
	got := ridRows(t, src, vecSize)
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", name, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: got (value, rid) %v, want %v (all: %v)", name, i, got[i], want[i], got)
		}
	}
}

// A merger's selection removes deleted rows: its row i is image position
// start+i. A morsel scanner's selection lists the rows its filters let
// through: its row p is position start+p. Either way the number is written
// where the row's values are: at RowIndex(i), not at i.
func TestMorselScanRIDFollowsSelectionVector(t *testing.T) {
	merged := []fakeBatch{
		{start: 100, vals: []int64{10, 11, 12, 13, 14, 15, 16, 17}, sel: []int32{1, 3, 6}},
		{start: 103, vals: []int64{20, 21, 22}},
		{start: 106, vals: []int64{30, 31, 32, 33}, sel: []int32{}}, // all deleted
		{start: 106, vals: []int64{40, 41}, sel: []int32{1}},
	}
	// Batches larger than the vector size must fit too.
	checkRIDs(t, "serial", SerialMorselSource(&fakeSource{script: merged, end: len(merged)}), 4,
		[][2]int64{{11, 100}, {13, 101}, {16, 102}, {20, 103}, {21, 104}, {22, 105}, {41, 106}})
	filtered := []fakeBatch{
		{start: 100, vals: []int64{10, 11, 12, 13, 14, 15, 16, 17}, sel: []int32{1, 3, 6}},
		{start: 108, vals: []int64{20, 21, 22}},
		{start: 111, vals: []int64{40, 41}, sel: []int32{1}},
	}
	checkRIDs(t, "morsels", scriptMorsels(filtered), 4,
		[][2]int64{{11, 101}, {13, 103}, {16, 106}, {20, 108}, {21, 109}, {22, 110}, {41, 112}})
}

// A source may fill the caller's vectors on one call and re-point the
// caller's batch at its own vectors on the next: the scan must pair the RID
// vector with whichever vectors the batch holds now.
func TestMorselScanRIDSurvivesRealiasedBatch(t *testing.T) {
	script := []fakeBatch{
		{start: 0, vals: []int64{1, 2, 3}},
		{start: 3, vals: []int64{4, 5, 6, 7}, realias: true},
		{start: 7, vals: []int64{8, 9}},
		{start: 9, vals: []int64{10, 11, 12}, sel: []int32{0, 2}, realias: true},
		{start: 11, vals: []int64{13}},
	}
	want := [][2]int64{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}, {7, 6}, {8, 7}, {9, 8}}
	checkRIDs(t, "serial", SerialMorselSource(&fakeSource{script: script, end: len(script)}), 1024,
		append(want, [2]int64{10, 9}, [2]int64{12, 10}, [2]int64{13, 11}))
	script[4].start = 12
	checkRIDs(t, "morsels", scriptMorsels(script), 1024,
		append(want, [2]int64{10, 9}, [2]int64{12, 11}, [2]int64{13, 12}))
}

// windowMorsels offers the clustered group window of a table as morsels
// rebased by the seek base, as the engine's morsel source does.
type windowMorsels struct {
	tab     *colstore.Table
	filters []colstore.RangeFilter
	lo, hi  int
}

func (s windowMorsels) NumMorsels() int { return s.hi - s.lo }

func (s windowMorsels) Worker() (MorselScanner, error) {
	sc, err := s.tab.NewMorselScanner([]int{0}, 1000, s.filters...)
	if err != nil {
		return nil, err
	}
	sc.SetSeekBase(s.lo)
	return sc, nil
}

// A delta-free scan that skips row groups (by the clustered window, or by
// min/max summaries) still numbers rows by their place in the whole table,
// and so does the serial stream, which skips nothing.
func TestMorselScanRIDAcrossSkippedRowGroups(t *testing.T) {
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
	check := func(name string, got [][2]int64, want int) {
		t.Helper()
		if len(got) != want {
			t.Fatalf("%s: %d rows emitted, want %d", name, len(got), want)
		}
		for _, r := range got {
			if r[0] != r[1]*2 {
				t.Fatalf("%s: value %d carries rid %d, want %d", name, r[0], r[1], r[0]/2)
			}
		}
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
		filters := []colstore.RangeFilter{{Col: 0, Lo: &lo, Hi: &hi}}
		wlo, whi := tab.ClusteredWindow(filters)
		check(tc.name+" (window)", ridRows(t, windowMorsels{tab, filters, wlo, whi}, 1000), tc.rows)
		// The whole table as morsels: min/max skipping prunes the same groups.
		check(tc.name+" (zone maps)", ridRows(t, windowMorsels{tab, filters, 0, tab.NumBlocks()}, 1000), tc.rows)
	}
	sc, err := tab.NewScanner([]int{0}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	check("serial", ridRows(t, SerialMorselSource(sc), 1000), rows)
}
