package colstore

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Col("id", types.Int64),
		types.Col("qty", types.Int32),
		types.Col("price", types.Float64),
		types.Col("mode", types.String),
		types.Col("d", types.Date),
		types.Col("flag", types.Bool),
	)
}

func fillTable(t *testing.T, rows int) *Table {
	t.Helper()
	tab := NewTable(testSchema())
	ap := tab.NewAppender()
	modes := []string{"AIR", "RAIL", "SHIP"}
	batch := vec.NewBatchFromSchema(testSchema(), 512)
	i := 0
	for i < rows {
		n := 512
		if rows-i < n {
			n = rows - i
		}
		batch.Reset()
		batch.SetLen(n)
		for k := 0; k < n; k++ {
			r := i + k
			batch.Vecs[0].I64[k] = int64(r)
			batch.Vecs[1].I32[k] = int32(r % 50)
			batch.Vecs[2].F64[k] = float64(r) * 0.25
			batch.Vecs[3].Str[k] = modes[r%3]
			batch.Vecs[4].I32[k] = int32(10000 + r/100)
			batch.Vecs[5].Bool[k] = r%2 == 0
		}
		if err := ap.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	return tab
}

// scanAll reads the projection through a morsel scanner that seeks every
// row group in order — the filtered in-order scan — and returns the rows,
// the start position of every batch and the groups the filters skipped.
func scanAll(t *testing.T, tab *Table, cols []int, vecSize int, filters ...RangeFilter) (*vec.Batch, []int64, int) {
	t.Helper()
	sc, err := tab.NewMorselScanner(cols, vecSize, filters...)
	if err != nil {
		t.Fatal(err)
	}
	acc := vec.NewBatch(sc.Kinds(), 0)
	var starts []int64
	total := 0
	seekAll(t, sc, vecSize, func(start int64, out *vec.Batch) {
		starts = append(starts, start)
		total += out.Rows()
		for i := range acc.Vecs {
			acc.Vecs[i].AppendVector(out.Vecs[i])
		}
	})
	acc.SetLen(total)
	return acc, starts, sc.SkippedGroups()
}

// seekAll drains a morsel scanner over every row group in order, handing
// each batch and its start position to emit.
func seekAll(t *testing.T, sc *Scanner, vecSize int, emit func(start int64, b *vec.Batch)) {
	t.Helper()
	out := vec.NewBatch(sc.Kinds(), vecSize)
	for g := 0; g < sc.NumGroups(); g++ {
		sc.SeekGroup(g)
		for {
			start, _, done, err := sc.Next(out)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			emit(start, out)
		}
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	const rows = 40000 // spans multiple row groups with a partial tail
	tab := fillTable(t, rows)
	if tab.Rows() != rows {
		t.Fatalf("rows = %d", tab.Rows())
	}
	if tab.NumBlocks() != 3 { // 16384+16384+7232
		t.Fatalf("blocks = %d", tab.NumBlocks())
	}
	acc, starts, _ := scanAll(t, tab, []int{0, 1, 2, 3, 4, 5}, 1024)
	if acc.Full() != rows {
		t.Fatalf("scanned %d", acc.Full())
	}
	if starts[0] != 0 {
		t.Fatalf("first start = %d", starts[0])
	}
	for i := 0; i < rows; i += 997 {
		if acc.Vecs[0].I64[i] != int64(i) {
			t.Fatalf("id[%d] = %d", i, acc.Vecs[0].I64[i])
		}
		if acc.Vecs[1].I32[i] != int32(i%50) {
			t.Fatalf("qty[%d]", i)
		}
		if acc.Vecs[2].F64[i] != float64(i)*0.25 {
			t.Fatalf("price[%d]", i)
		}
		if acc.Vecs[3].Str[i] != []string{"AIR", "RAIL", "SHIP"}[i%3] {
			t.Fatalf("mode[%d]", i)
		}
		if acc.Vecs[5].Bool[i] != (i%2 == 0) {
			t.Fatalf("flag[%d]", i)
		}
	}
}

func TestProjectionScan(t *testing.T) {
	tab := fillTable(t, 5000)
	acc, _, _ := scanAll(t, tab, []int{2, 0}, 700)
	if len(acc.Vecs) != 2 || acc.Full() != 5000 {
		t.Fatal("projection shape")
	}
	if acc.Vecs[0].Kind != types.KindFloat64 || acc.Vecs[1].Kind != types.KindInt64 {
		t.Fatal("projection kinds")
	}
	if acc.Vecs[1].I64[4999] != 4999 {
		t.Fatal("projection content")
	}
}

func TestBlockSkipping(t *testing.T) {
	tab := fillTable(t, BlockRows*4) // ids 0..65535 across 4 groups
	lo := types.NewInt64(int64(BlockRows*2 + 5))
	hi := types.NewInt64(int64(BlockRows*2 + 10))
	acc, _, skipped := scanAll(t, tab, []int{0}, 1024, RangeFilter{Col: 0, Lo: &lo, Hi: &hi})
	if skipped != 3 {
		t.Fatalf("skipped %d groups, want 3", skipped)
	}
	// All qualifying rows must still be present (skipping is conservative).
	found := 0
	for i := 0; i < acc.Full(); i++ {
		v := acc.Vecs[0].I64[i]
		if v >= lo.I64 && v <= hi.I64 {
			found++
		}
	}
	if found != 6 {
		t.Fatalf("found %d matching rows, want 6", found)
	}
}

// DecodedBytes and SkippedBytes split the projected columns' encoded bytes
// between them; unprojected columns appear in neither.
func TestDecodedAndSkippedBytesCoverTheProjection(t *testing.T) {
	tab := fillTable(t, BlockRows*4)
	cols := []int{0, 3}
	var want int64
	for g := 0; g < tab.NumBlocks(); g++ {
		frame, err := tab.EncodeGroup(g)
		if err != nil {
			t.Fatal(err)
		}
		payloads, err := DecodeGroupPayloads(frame, tab.Schema().Len())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cols {
			want += int64(len(payloads[c]))
		}
	}
	lo := types.NewInt64(int64(BlockRows*2 + 5))
	for _, filters := range [][]RangeFilter{nil, {{Col: 0, Lo: &lo}}} {
		sc, err := tab.NewMorselScanner(cols, 1024, filters...)
		if err != nil {
			t.Fatal(err)
		}
		seekAll(t, sc, 1024, func(int64, *vec.Batch) {})
		if filters == nil && (sc.DecodedBytes() != want || sc.SkippedBytes() != 0) {
			t.Fatalf("full scan decoded %d skipped %d, want %d and 0", sc.DecodedBytes(), sc.SkippedBytes(), want)
		}
		if filters != nil && (sc.SkippedBytes() == 0 || sc.DecodedBytes()+sc.SkippedBytes() != want) {
			t.Fatalf("filtered scan decoded %d + skipped %d, want them to add to %d", sc.DecodedBytes(), sc.SkippedBytes(), want)
		}
	}
}

func TestBlockSkippingOpenBounds(t *testing.T) {
	tab := fillTable(t, BlockRows*3)
	hi := types.NewInt64(100)
	_, _, skipped := scanAll(t, tab, []int{0}, 2048, RangeFilter{Col: 0, Hi: &hi})
	if skipped != 2 {
		t.Fatalf("hi-only filter skipped %d, want 2", skipped)
	}
	lo := types.NewInt64(int64(BlockRows*3 - 10))
	_, _, skipped = scanAll(t, tab, []int{0}, 2048, RangeFilter{Col: 0, Lo: &lo})
	if skipped != 2 {
		t.Fatalf("lo-only filter skipped %d, want 2", skipped)
	}
}

// Regression: NaN values are unordered, so an all-NaN float block used to
// summarize as Min=+Inf, Max=-Inf and skipGroup pruned it even though its
// rows are live. NaN presence must widen the summary so the block always
// survives skipping.
func TestNaNBlocksAreNeverSkipped(t *testing.T) {
	tab := NewTable(types.NewSchema(types.Col("f", types.Float64)))
	ap := tab.NewAppender()
	nan := math.NaN()
	// Group 0: all NaN. Group 1: mixed NaN and ordinary values.
	for i := 0; i < BlockRows; i++ {
		if err := ap.AppendRow([]types.Value{types.NewFloat64(nan)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < BlockRows; i++ {
		v := float64(i)
		if i%2 == 0 {
			v = nan
		}
		if err := ap.AppendRow([]types.Value{types.NewFloat64(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	lo, hi := types.NewFloat64(1e6), types.NewFloat64(2e6)
	acc, _, skipped := scanAll(t, tab, []int{0}, 1024, RangeFilter{Col: 0, Lo: &lo, Hi: &hi})
	if skipped != 0 {
		t.Fatalf("skipped %d NaN-carrying groups, want 0", skipped)
	}
	if acc.Full() != 2*BlockRows {
		t.Fatalf("scanned %d rows, want %d", acc.Full(), 2*BlockRows)
	}
	nans := 0
	for i := 0; i < acc.Full(); i++ {
		if math.IsNaN(acc.Vecs[0].F64[i]) {
			nans++
		}
	}
	if want := BlockRows + BlockRows/2; nans != want {
		t.Fatalf("NaN rows surviving scan = %d, want %d", nans, want)
	}
}

func TestNewScannerRejectsBadFilterColumn(t *testing.T) {
	tab := fillTable(t, 100)
	lo := types.NewInt64(1)
	if _, err := tab.NewMorselScanner([]int{0}, 64, RangeFilter{Col: 99, Lo: &lo}); err == nil {
		t.Fatal("out-of-range filter column must error, not panic in skipGroup")
	}
	if _, err := tab.NewMorselScanner([]int{0}, 64, RangeFilter{Col: -1, Lo: &lo}); err == nil {
		t.Fatal("negative filter column must error")
	}
}

func TestTotalGroupsAndPartitions(t *testing.T) {
	tab := fillTable(t, BlockRows*4)
	sc, err := tab.NewScanner([]int{0}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if sc.TotalGroups() != 4 {
		t.Fatalf("TotalGroups = %d, want 4", sc.TotalGroups())
	}
	// A morsel worker's partition is whatever it seeks: TotalGroups counts
	// the groups it was handed, and each serves exactly its own rows.
	part, err := tab.NewMorselScanner([]int{0}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if part.TotalGroups() != 0 {
		t.Fatalf("unseeked morsel scanner TotalGroups = %d, want 0", part.TotalGroups())
	}
	b := vec.NewBatch(part.Kinds(), 1024)
	for _, g := range []int{2, 3} {
		part.SeekGroup(g)
		rows := 0
		for {
			start, n, done, err := part.Next(b)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			if rows == 0 && start != int64(g*BlockRows) {
				t.Fatalf("group %d starts at %d", g, start)
			}
			rows += n
		}
		if rows != BlockRows {
			t.Fatalf("group %d served %d rows, want %d", g, rows, BlockRows)
		}
	}
	if part.TotalGroups() != 2 {
		t.Fatalf("partition TotalGroups = %d, want 2", part.TotalGroups())
	}
}

func TestColumnSummary(t *testing.T) {
	tab := fillTable(t, BlockRows*2)
	lo, hi, ok := tab.ColumnSummary(0)
	if !ok {
		t.Fatal("no summary for populated column")
	}
	if lo.I64 != 0 || hi.I64 != int64(BlockRows*2-1) {
		t.Fatalf("summary [%v,%v]", lo, hi)
	}
	if _, _, ok := tab.ColumnSummary(42); ok {
		t.Fatal("summary for missing column")
	}
	empty := NewTable(types.NewSchema(types.Col("x", types.Int64)))
	if _, _, ok := empty.ColumnSummary(0); ok {
		t.Fatal("summary for empty table")
	}
}

func TestAppendRowAndPartialFlush(t *testing.T) {
	tab := NewTable(types.NewSchema(types.Col("x", types.Int64)))
	ap := tab.NewAppender()
	for i := 0; i < 10; i++ {
		if err := ap.AppendRow([]types.Value{types.NewInt64(int64(i * 3))}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Rows() != 0 {
		t.Fatal("rows visible before flush")
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 10 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	acc, _, _ := scanAll(t, tab, []int{0}, 4)
	if acc.Vecs[0].I64[9] != 27 {
		t.Fatal("content")
	}
	// Wrong arity rejected.
	if err := ap.AppendRow([]types.Value{types.NewInt64(1), types.NewInt64(2)}); err == nil {
		t.Fatal("arity error not detected")
	}
}

func TestCompressionEffective(t *testing.T) {
	tab := fillTable(t, BlockRows*2)
	raw := int64(BlockRows*2) * (8 + 4 + 8 + 4 + 4 + 1)
	comp := tab.CompressedBytes()
	if comp*2 > raw {
		t.Fatalf("compression ratio too weak: %d compressed vs %d raw", comp, raw)
	}
	// Sorted id column should pick PFOR-DELTA; low-cardinality mode PDICT.
	_, idCodec := tab.BlockMeta(0, 0)
	if idCodec.String() != "pfor-delta" {
		t.Fatalf("id codec = %v", idCodec)
	}
	_, modeCodec := tab.BlockMeta(3, 0)
	if modeCodec.String() != "pdict" {
		t.Fatalf("mode codec = %v", modeCodec)
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.vwt")
	tab := fillTable(t, 20000)
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 20000 || got.Schema().String() != tab.Schema().String() {
		t.Fatalf("loaded meta: %d %s", got.Rows(), got.Schema())
	}
	acc, _, _ := scanAll(t, got, []int{0, 3}, 1024)
	if acc.Full() != 20000 || acc.Vecs[0].I64[19999] != 19999 || acc.Vecs[1].Str[1] != "RAIL" {
		t.Fatal("loaded content")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.vwt")
	if err := os.WriteFile(path, []byte("not a table"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(filepath.Join(dir, "missing.vwt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestScannerColumnRangeError(t *testing.T) {
	tab := fillTable(t, 100)
	if _, err := tab.NewScanner([]int{99}, 0); err == nil {
		t.Fatal("bad column accepted")
	}
}

func TestScanStartPositions(t *testing.T) {
	tab := fillTable(t, BlockRows+100)
	sc, _ := tab.NewScanner([]int{0}, 1000)
	out := vec.NewBatch(sc.Kinds(), 0)
	var prevEnd int64
	for {
		start, n, done, err := sc.Next(out)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if start != prevEnd {
			t.Fatalf("start %d, want %d (SIDs must be dense)", start, prevEnd)
		}
		// Batches never cross row-group boundaries.
		if (start%BlockRows)+int64(n) > BlockRows {
			t.Fatalf("batch crosses row group: start=%d n=%d", start, n)
		}
		prevEnd = start + int64(n)
	}
	if prevEnd != BlockRows+100 {
		t.Fatalf("total = %d", prevEnd)
	}
}

// Encoding a block allocates a small constant — the block's bytes — however
// many rows it holds: the widening buffer and the encoder's working memory
// are the appender's.
func TestEncodeBlockAllocations(t *testing.T) {
	schema := testSchema()
	ap := NewTable(schema).NewAppender()
	b := vec.NewBatchFromSchema(schema, BlockRows)
	modes := []string{"AIR", "RAIL", "SHIP"}
	for r := 0; r < BlockRows; r++ {
		b.Vecs[0].I64[r] = int64(r * 7 % 1000)
		b.Vecs[1].I32[r] = int32(r % 50)
		b.Vecs[2].F64[r] = float64(r) * 0.25
		b.Vecs[3].Str[r] = modes[r%3]
		b.Vecs[4].I32[r] = int32(10000 + r/100)
		b.Vecs[5].Bool[r] = r%2 == 0
	}
	for c, col := range schema.Cols {
		kind := col.Type.Kind
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ap.encodeBlock(kind, b.Vecs[c], BlockRows); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 { // 1, and 2 under the race detector
			t.Errorf("encoding a %v block of %d rows: %.0f allocations, want at most 2", kind, BlockRows, allocs)
		}
	}
}
