package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// imageRow is one row of the image a snapshot must see.
type imageRow struct {
	id   int64
	name string
}

// scanImage reads the full width of tx's image in batches of vecSize rows.
func scanImage(tx *Txn, vecSize int) ([]imageRow, error) {
	src, err := tx.Scan([]int{0, 1}, vecSize)
	if err != nil {
		return nil, err
	}
	b := vec.NewBatch(src.Kinds(), 0)
	var out []imageRow
	for {
		_, n, done, err := src.Next(b)
		if err != nil {
			return nil, err
		}
		if done {
			return out, nil
		}
		for i := 0; i < n; i++ {
			r := b.RowIndex(i)
			out = append(out, imageRow{b.Vecs[0].Get(r).Int64(), b.Vecs[1].Get(r).Str})
		}
	}
}

// sameImage reports the first difference between got and want, or "".
func sameImage(got, want []imageRow) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d is %v, want %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	return ""
}

// sharingWriter drives the commits of TestSnapshotIsolationUnderSharing and
// keeps the model image they produce. mu orders every commit and its model
// update with the readers' Begin and their read of the model.
type sharingWriter struct {
	t      *testing.T
	s      *Store
	rng    *rand.Rand
	mu     sync.Mutex
	model  []imageRow // replaced, never changed in place: readers keep old ones
	nextID int64
	step   int

	anchored int // anchored commits that applied
}

// snapshot begins n transactions on the current image.
func (w *sharingWriter) snapshot(n int) ([]*Txn, []imageRow) {
	w.mu.Lock()
	defer w.mu.Unlock()
	txs := make([]*Txn, n)
	for i := range txs {
		txs[i] = w.s.Begin()
	}
	return txs, w.model
}

// commit commits tx and, when it applied, publishes image as the model.
// A checkpoint that slipped in after tx began makes it too old: nothing
// changes then.
func (w *sharingWriter) commit(tx *Txn, image func() []imageRow) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := tx.Commit()
	if errors.Is(err, ErrSnapshotTooOld) {
		return false
	}
	if err != nil {
		w.t.Errorf("step %d: commit: %v", w.step, err)
		return false
	}
	w.model = image()
	return true
}

// at is the position of row id in img.
func at(img []imageRow, id int64) int64 {
	for i, r := range img {
		if r.id == id {
			return int64(i)
		}
	}
	panic(fmt.Sprintf("row %d is not in the image", id))
}

func (w *sharingWriter) insert(tx *Txn, img []imageRow, pos int64) []imageRow {
	w.nextID++
	r := imageRow{w.nextID, "ins"}
	if err := tx.InsertRowAt(pos, row2(r.id, r.name)); err != nil {
		w.t.Errorf("step %d: insert at %d: %v", w.step, pos, err)
	}
	return slices.Insert(slices.Clone(img), int(pos), r)
}

func (w *sharingWriter) modify(tx *Txn, img []imageRow, pos int64) []imageRow {
	name := fmt.Sprintf("mod%d", w.step)
	if err := tx.UpdateAt(pos, 1, types.NewString(name)); err != nil {
		w.t.Errorf("step %d: modify at %d: %v", w.step, pos, err)
	}
	img = slices.Clone(img)
	img[pos].name = name
	return img
}

func (w *sharingWriter) delete(tx *Txn, img []imageRow, pos int64) []imageRow {
	if err := tx.DeleteAt(pos); err != nil {
		w.t.Errorf("step %d: delete at %d: %v", w.step, pos, err)
	}
	return slices.Delete(slices.Clone(img), int(pos), int(pos)+1)
}

// positional commits one transaction with nothing committed in between, so
// its ops replay by image position. edit applies them to tx and returns
// the image they make of the snapshot's.
func (w *sharingWriter) positional(edit func(tx *Txn, img []imageRow) []imageRow) {
	w.step++
	txs, img := w.snapshot(1)
	img = edit(txs[0], img)
	w.commit(txs[0], func() []imageRow { return img })
}

// pair begins two transactions on one snapshot and commits them in turn:
// the first replays by position, the second — with the first in between —
// re-anchors its modify of row modID and its delete of row delID at their
// stable rows. Both must be rows of the stable table that the first
// transaction leaves alone.
func (w *sharingWriter) pair(first func(tx *Txn, img []imageRow) []imageRow, modID, delID int64) {
	w.step++
	txs, img := w.snapshot(2)
	img1 := first(txs[0], img)
	name := fmt.Sprintf("anchored%d", w.step)
	if err := txs[1].UpdateAt(at(img, modID), 1, types.NewString(name)); err != nil {
		w.t.Errorf("step %d: anchored modify: %v", w.step, err)
	}
	if err := txs[1].DeleteAt(at(img, delID)); err != nil {
		w.t.Errorf("step %d: anchored delete: %v", w.step, err)
	}
	if !w.commit(txs[0], func() []imageRow { return img1 }) {
		txs[1].Abort()
		return
	}
	if w.commit(txs[1], func() []imageRow {
		out := slices.Clone(w.model)
		out[at(out, modID)].name = name
		return slices.Delete(out, int(at(out, delID)), int(at(out, delID))+1)
	}) {
		w.anchored++
	}
}

// stableIDs lists the rows of img that come from the original stable table:
// ids below stableRows.
func stableIDs(img []imageRow, stableRows int64) []int64 {
	var out []int64
	for _, r := range img {
		if r.id < stableRows {
			out = append(out, r.id)
		}
	}
	return out
}

// Readers share the published read-PDT by pointer while a writer commits
// positional and anchored ops — modifies of modified rows, deletes of
// modified rows, modifies and deletes of committed inserts — and
// checkpoints run at the same time: every snapshot must keep reading
// exactly the image it began on.
func TestSnapshotIsolationUnderSharing(t *testing.T) {
	const stableRows, steps, readers = 240, 150, 3
	s := newStore(t, stableRows)
	init := s.Begin()
	model, err := scanImage(init, 0)
	init.Abort()
	if err != nil {
		t.Fatal(err)
	}
	w := &sharingWriter{t: t, s: s, rng: rand.New(rand.NewSource(1)), model: model, nextID: 1000}

	// held keeps the first snapshot through every commit and checkpoint.
	held, heldImage := w.snapshot(1)

	done := make(chan struct{})
	checkpoint := make(chan struct{}, 1)
	var wg sync.WaitGroup
	checkpoints := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range checkpoint {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
			checkpoints++
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				txs, want := w.snapshot(1)
				// Read twice, yielding in between, so commits land while
				// the snapshot is held.
				for pass := 0; pass < 2; pass++ {
					got, err := scanImage(txs[0], 1+rng.Intn(16))
					if err != nil {
						t.Errorf("reader %d: %v", seed, err)
					} else if d := sameImage(got, want); d != "" {
						t.Errorf("reader %d: %s", seed, d)
					}
					runtime.Gosched()
				}
				txs[0].Abort()
			}
		}(int64(r))
	}

	// Scripted first, so every kind of op the sharing must survive occurs
	// at least once: stable rows 10 and 20 are modified, then modified
	// again and deleted by position; rows 30 and 40 likewise by anchored
	// ops; a committed insert is modified, then deleted.
	w.positional(func(tx *Txn, img []imageRow) []imageRow {
		img = w.modify(tx, img, at(img, 10))
		img = w.modify(tx, img, at(img, 20))
		img = w.modify(tx, img, at(img, 30))
		img = w.modify(tx, img, at(img, 40))
		return w.insert(tx, img, 50)
	})
	ins := w.nextID
	w.positional(func(tx *Txn, img []imageRow) []imageRow {
		img = w.modify(tx, img, at(img, 10))
		return w.modify(tx, img, at(img, ins))
	})
	w.positional(func(tx *Txn, img []imageRow) []imageRow {
		img = w.delete(tx, img, at(img, 20))
		return w.delete(tx, img, at(img, ins))
	})
	w.pair(func(tx *Txn, img []imageRow) []imageRow { return w.insert(tx, img, 0) }, 30, 40)

	// Then random: the first transaction of a pair edits anything but the
	// pair's rows; the second modifies and deletes original stable rows,
	// modified ones when there are.
	random := func(tx *Txn, img []imageRow, avoid ...int64) []imageRow {
		for k, n := 0, 1+w.rng.Intn(3); k < n; k++ {
			pos := int64(w.rng.Intn(len(img)))
			if slices.Contains(avoid, img[pos].id) {
				continue
			}
			switch w.rng.Intn(3) {
			case 0:
				img = w.insert(tx, img, pos)
			case 1:
				img = w.modify(tx, img, pos)
			default:
				img = w.delete(tx, img, pos)
			}
		}
		return img
	}
	for i := 0; i < steps; i++ {
		if i%10 == 0 {
			select {
			case checkpoint <- struct{}{}:
			default: // one is still running
			}
		}
		if i%3 != 0 || len(stableIDs(w.model, stableRows)) < 2 {
			w.positional(func(tx *Txn, img []imageRow) []imageRow { return random(tx, img) })
			continue
		}
		pool := stableIDs(w.model, stableRows)
		var modified []int64
		for _, id := range pool {
			if w.model[at(w.model, id)].name != model[id].name {
				modified = append(modified, id)
			}
		}
		if len(modified) >= 2 {
			pool = modified
		}
		w.rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		modID, delID := pool[0], pool[1]
		w.pair(func(tx *Txn, img []imageRow) []imageRow { return random(tx, img, modID, delID) }, modID, delID)
	}
	close(checkpoint)
	close(done)
	wg.Wait()

	got, err := scanImage(held[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameImage(got, heldImage); d != "" {
		t.Fatalf("the first snapshot, held to the end: %s", d)
	}
	held[0].Abort()
	final, want := w.snapshot(1)
	defer final[0].Abort()
	if got, err = scanImage(final[0], 0); err != nil {
		t.Fatal(err)
	}
	if d := sameImage(got, want); d != "" {
		t.Fatalf("the final image: %s", d)
	}
	if w.anchored == 0 || checkpoints == 0 {
		t.Fatalf("%d anchored commits and %d checkpoints ran; the test needs both", w.anchored, checkpoints)
	}
}
