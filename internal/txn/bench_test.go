package txn

import (
	"fmt"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/datagen"
	"vectorwise/internal/types"
)

// pendingStore is a store of stableRows rows carrying pending committed
// ops: a third modifies, a third deletes, a third inserts (stableRows must
// be at least twice pending).
func pendingStore(t testing.TB, stableRows, pending int) *Store {
	s := newStore(t, stableRows)
	if pending == 0 {
		return s
	}
	tx := s.Begin()
	mods, dels := pending/3, pending/3
	for i := 0; i < mods; i++ {
		if err := tx.UpdateAt(int64(2*i), 1, types.NewString("mod")); err != nil {
			t.Fatal(err)
		}
	}
	// Odd positions from the top down: each delete leaves the positions of
	// the ones still to come where they were.
	for i := 0; i < dels; i++ {
		if err := tx.DeleteAt(int64(stableRows - 1 - 2*i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := mods + dels; i < pending; i++ {
		if err := tx.InsertRow(row2(int64(-i), "ins")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingOps(); got != pending {
		t.Fatalf("%d pending ops, want %d", got, pending)
	}
	return s
}

// openScan is what every SELECT pays before its first batch.
func openScan(t testing.TB, s *Store) {
	tx := s.Begin()
	if _, err := tx.Scan([]int{0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
}

// Opening a scan costs the same number of allocations however many deltas
// are pending: the snapshot shares the read-PDT instead of copying it, and
// its flattened ops are computed once per version, not once per scan. A
// table with no deltas at all skips the merge layer, which is all its
// scan allocates less.
func TestBeginScanAllocatesPerScanNotPerDelta(t *testing.T) {
	const stableRows = 30000
	allocs := map[int]float64{}
	for _, pending := range []int{0, 1, 10000} {
		s := pendingStore(t, stableRows, pending)
		allocs[pending] = testing.AllocsPerRun(20, func() { openScan(t, s) })
	}
	if allocs[10000] != allocs[1] {
		t.Fatalf("Begin+Scan+Abort: %.0f allocations over 10000 pending ops, %.0f over 1", allocs[10000], allocs[1])
	}
	// The merge layer: the Merger, its column map and the kinds it asks
	// the scanner for.
	if layer := allocs[1] - allocs[0]; layer > 3 {
		t.Fatalf("one merge layer costs %.0f allocations (0 pending: %.0f, 1: %.0f)", layer, allocs[0], allocs[1])
	}
}

func BenchmarkBeginPendingDeltas(b *testing.B) {
	for _, pending := range []int{0, 100, 10000} {
		s := pendingStore(b, 30000, pending)
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				openScan(b, s)
			}
		})
	}
}

// lineitemStore is a store over datagen's lineitem in its stored form (the
// eleven columns plus l_comment's NULL indicator), groups row groups long,
// carrying pending committed ops: a third updates, a third deletes, a third
// inserts.
func lineitemStore(b *testing.B, groups, pending int) *Store {
	schema := datagen.LineitemSchema().Clone()
	schema.Cols[10].Type.Nullable = false
	schema.Cols = append(schema.Cols, types.Col("l_comment$null", types.Bool))
	tab := colstore.NewTable(schema)
	ap := tab.NewAppender()
	rows := groups * colstore.BlockRows
	var last []types.Value
	err := datagen.Lineitems((float64(rows)+0.5)/datagen.RowsPerSF, 1, func(row []types.Value) error {
		null := row[10].Null
		if null {
			row[10] = types.NewString("")
		}
		last = append(row[:11:11], types.NewBool(null))
		return ap.AppendRow(last)
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := ap.Close(); err != nil {
		b.Fatal(err)
	}
	s := NewStore(tab)
	tx := s.Begin()
	third := pending / 3
	for i := 0; i < third; i++ {
		if err := tx.UpdateAt(int64(i*97), 2, types.NewInt32(int32(i%50+1))); err != nil {
			b.Fatal(err)
		}
		if err := tx.DeleteAt(int64(rows - 1 - i*89)); err != nil {
			b.Fatal(err)
		}
		if err := tx.InsertRow(last); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkCheckpoint rewrites a four-group lineitem merged with 300 pending
// ops: the work of CHECKPOINT before it persists and swaps the new table.
// Choosing and encoding a codec for every block is most of it.
func BenchmarkCheckpoint(b *testing.B) {
	s := lineitemStore(b, 4, 300)
	stable, read := s.Stable(), s.read
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rebuild(stable, read); err != nil {
			b.Fatal(err)
		}
	}
}
