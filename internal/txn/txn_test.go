package txn

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"vectorwise/internal/colstore"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

func newStore(t testing.TB, rows int) *Store {
	t.Helper()
	schema := types.NewSchema(types.Col("id", types.Int64), types.Col("name", types.String))
	tab := colstore.NewTable(schema)
	ap := tab.NewAppender()
	for i := 0; i < rows; i++ {
		if err := ap.AppendRow([]types.Value{
			types.NewInt64(int64(i)),
			types.NewString("row" + string(rune('A'+i%26))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	return NewStore(tab)
}

func readIDs(t *testing.T, tx *Txn) []int64 {
	t.Helper()
	src, err := tx.Scan([]int{0}, 64)
	if err != nil {
		t.Fatal(err)
	}
	b := vec.NewBatch(src.Kinds(), 0)
	var out []int64
	for {
		_, n, done, err := src.Next(b)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		for i := 0; i < n; i++ {
			out = append(out, b.Vecs[0].Get(b.RowIndex(i)).Int64())
		}
	}
	return out
}

func row2(id int64, name string) []types.Value {
	return []types.Value{types.NewInt64(id), types.NewString(name)}
}

func TestCommitVisibility(t *testing.T) {
	s := newStore(t, 5)
	t1 := s.Begin()
	if err := t1.InsertRow(row2(100, "new")); err != nil {
		t.Fatal(err)
	}
	if err := t1.DeleteAt(0); err != nil {
		t.Fatal(err)
	}
	// t1 sees its own writes.
	got := readIDs(t, t1)
	if len(got) != 5 || got[0] != 1 || got[4] != 100 {
		t.Fatalf("t1 view: %v", got)
	}
	// A concurrent reader does not.
	t2 := s.Begin()
	if got := readIDs(t, t2); len(got) != 5 || got[0] != 0 {
		t.Fatalf("t2 view before commit: %v", got)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// t2's snapshot still isolated.
	if got := readIDs(t, t2); got[0] != 0 {
		t.Fatalf("t2 snapshot broken: %v", got)
	}
	t2.Abort()
	// New txn sees the commit.
	t3 := s.Begin()
	defer t3.Abort()
	got = readIDs(t, t3)
	if len(got) != 5 || got[0] != 1 || got[4] != 100 {
		t.Fatalf("t3 view: %v", got)
	}
	if s.Rows() != 5 {
		t.Fatalf("store rows: %d", s.Rows())
	}
}

func TestAbortDiscards(t *testing.T) {
	s := newStore(t, 3)
	tx := s.Begin()
	tx.InsertRow(row2(99, "x"))
	tx.DeleteAt(0)
	tx.Abort()
	t2 := s.Begin()
	defer t2.Abort()
	if got := readIDs(t, t2); len(got) != 3 || got[0] != 0 {
		t.Fatalf("abort leaked: %v", got)
	}
	if err := tx.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatal("commit after abort accepted")
	}
}

func TestUpdateAt(t *testing.T) {
	s := newStore(t, 4)
	tx := s.Begin()
	if err := tx.UpdateAt(2, 0, types.NewInt64(222)); err != nil {
		t.Fatal(err)
	}
	if got := readIDs(t, tx); got[2] != 222 {
		t.Fatalf("own update invisible: %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := s.Begin()
	defer t2.Abort()
	if got := readIDs(t, t2); got[2] != 222 {
		t.Fatalf("update lost: %v", got)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	s := newStore(t, 10)
	t1 := s.Begin()
	t2 := s.Begin()
	if err := t1.UpdateAt(5, 0, types.NewInt64(-5)); err != nil {
		t.Fatal(err)
	}
	if err := t2.DeleteAt(5); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
}

func TestDisjointWritesNoConflict(t *testing.T) {
	s := newStore(t, 10)
	t1 := s.Begin()
	t2 := s.Begin()
	t1.UpdateAt(2, 0, types.NewInt64(-2))
	t2.UpdateAt(7, 0, types.NewInt64(-7))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("disjoint writes conflicted: %v", err)
	}
	t3 := s.Begin()
	defer t3.Abort()
	got := readIDs(t, t3)
	if got[2] != -2 || got[7] != -7 {
		t.Fatalf("merged commits: %v", got)
	}
}

func TestConcurrentInsertsMerge(t *testing.T) {
	s := newStore(t, 3)
	t1 := s.Begin()
	t2 := s.Begin()
	t1.InsertRow(row2(101, "a"))
	t2.InsertRow(row2(102, "b"))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("concurrent append conflicted: %v", err)
	}
	t3 := s.Begin()
	defer t3.Abort()
	got := readIDs(t, t3)
	if len(got) != 5 {
		t.Fatalf("rows: %v", got)
	}
	seen := map[int64]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if !seen[101] || !seen[102] {
		t.Fatalf("lost insert: %v", got)
	}
}

func TestTouchCommittedInsertConflictsOnlyWithIntervening(t *testing.T) {
	s := newStore(t, 3)
	// Commit an insert.
	t0 := s.Begin()
	t0.InsertRow(row2(50, "committed"))
	if err := t0.Commit(); err != nil {
		t.Fatal(err)
	}
	// Modify that inserted (non-stable) row with no intervening commits.
	t1 := s.Begin()
	if err := t1.UpdateAt(3, 0, types.NewInt64(51)); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("non-stable touch without interleaving should commit: %v", err)
	}
	// Same pattern with an intervening commit must abort.
	t2 := s.Begin()
	if err := t2.UpdateAt(3, 0, types.NewInt64(52)); err != nil {
		t.Fatal(err)
	}
	t3 := s.Begin()
	t3.InsertRow(row2(60, "interloper"))
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("positional hazard not detected: %v", err)
	}
}

func TestCheckpoint(t *testing.T) {
	s := newStore(t, 8)
	tx := s.Begin()
	tx.DeleteAt(0)
	tx.UpdateAt(3, 1, types.NewString("patched"))
	tx.InsertRow(row2(900, "tail"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.PendingOps() == 0 {
		t.Fatal("no pending ops before checkpoint")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.PendingOps() != 0 {
		t.Fatal("ops survive checkpoint")
	}
	if s.Stable().Rows() != 8 {
		t.Fatalf("stable rows: %d", s.Stable().Rows())
	}
	t2 := s.Begin()
	defer t2.Abort()
	got := readIDs(t, t2)
	if len(got) != 8 || got[0] != 1 || got[7] != 900 {
		t.Fatalf("post-checkpoint image: %v", got)
	}
	// Empty checkpoint is a no-op.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotTooOld(t *testing.T) {
	s := newStore(t, 5)
	setup := s.Begin()
	setup.DeleteAt(4)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	tx.UpdateAt(1, 0, types.NewInt64(-1))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("stale snapshot committed: %v", err)
	}
	// Readers spanning the checkpoint still see their snapshot.
	tr := s.Begin()
	defer tr.Abort()
	if got := readIDs(t, tr); len(got) != 4 {
		t.Fatalf("post-checkpoint reader: %v", got)
	}
}

func TestBoundsChecks(t *testing.T) {
	s := newStore(t, 2)
	tx := s.Begin()
	defer tx.Abort()
	if err := tx.DeleteAt(2); err == nil {
		t.Fatal("delete oob")
	}
	if err := tx.UpdateAt(-1, 0, types.NewInt64(0)); err == nil {
		t.Fatal("update oob")
	}
	if err := tx.UpdateAt(0, 9, types.NewInt64(0)); err == nil {
		t.Fatal("update col oob")
	}
	if err := tx.InsertRowAt(5, row2(1, "x")); err == nil {
		t.Fatal("insert oob")
	}
	if err := tx.InsertRowAt(0, row2(1, "x")); err != nil {
		t.Fatal(err)
	}
}

func TestScanProjectionWithDeltas(t *testing.T) {
	s := newStore(t, 6)
	tx := s.Begin()
	tx.UpdateAt(2, 1, types.NewString("zzz"))
	src, err := tx.Scan([]int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := vec.NewBatch(src.Kinds(), 0)
	var names []string
	for {
		_, n, done, err := src.Next(b)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		for i := 0; i < n; i++ {
			names = append(names, b.Vecs[0].Get(b.RowIndex(i)).Str)
		}
	}
	if len(names) != 6 || names[2] != "zzz" {
		t.Fatalf("projection with deltas: %v", names)
	}
	tx.Abort()
}

func TestReadOnlyCommit(t *testing.T) {
	s := newStore(t, 3)
	tx := s.Begin()
	readIDs(t, tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Read-only commits never conflict and don't bump the sequence.
	t1 := s.Begin()
	t2 := s.Begin()
	t1.UpdateAt(0, 0, types.NewInt64(9))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// Property: a random write-PDT over a read-PDT, committed with nothing in
// between — the positional replay, positionalOps baking in the running
// shift and applyOps applying it — leaves exactly the image a row model of
// the same ops holds.
func TestPositionalOpsEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newStore(t, 30)
		// Seed the read layer.
		seedTx := s.Begin()
		if err := seedTx.InsertRowAt(int64(rng.Intn(31)), row2(-1, "seed")); err != nil {
			t.Fatal(err)
		}
		if err := seedTx.DeleteAt(int64(rng.Intn(31))); err != nil {
			t.Fatal(err)
		}
		if err := seedTx.Commit(); err != nil {
			t.Fatal(err)
		}

		tx := s.Begin()
		model := readIDs(t, tx)
		for o := 0; o < 20; o++ {
			size := int64(len(model))
			var err error
			switch op := rng.Intn(3); {
			case op == 0 || size == 0:
				at, id := rng.Int63n(size+1), int64(-100-o)
				err = tx.InsertRowAt(at, row2(id, "ins"))
				model = append(model[:at], append([]int64{id}, model[at:]...)...)
			case op == 1:
				at := rng.Int63n(size)
				err = tx.DeleteAt(at)
				model = append(model[:at], model[at+1:]...)
			default:
				at := rng.Int63n(size)
				err = tx.UpdateAt(at, 0, types.NewInt64(int64(o*7)))
				model[at] = int64(o * 7)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		got := readIDs(t, s.Begin())
		if len(got) != len(model) {
			return false
		}
		for i := range got {
			if got[i] != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
