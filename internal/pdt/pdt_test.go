package pdt

import (
	"math/rand"
	"testing"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// naiveImage is the reference model: a plain slice of rows that every PDT
// operation is checked against.
type naiveImage struct {
	rows [][]types.Value
}

func newNaive(stable []int64) *naiveImage {
	n := &naiveImage{}
	for _, v := range stable {
		n.rows = append(n.rows, []types.Value{types.NewInt64(v)})
	}
	return n
}

func (n *naiveImage) insert(at int64, row []types.Value) {
	n.rows = append(n.rows, nil)
	copy(n.rows[at+1:], n.rows[at:])
	r := append([]types.Value(nil), row...)
	n.rows[at] = r
}

func (n *naiveImage) delete(at int64) {
	n.rows = append(n.rows[:at], n.rows[at+1:]...)
}

func (n *naiveImage) modify(at int64, col int, v types.Value) {
	n.rows[at] = append([]types.Value(nil), n.rows[at]...)
	n.rows[at][col] = v
}

// sliceSource replays stable rows as a BatchSource.
type sliceSource struct {
	vals  []int64
	at    int
	batch int
}

func (s *sliceSource) Kinds() []types.Kind { return []types.Kind{types.KindInt64} }

func (s *sliceSource) Next(b *vec.Batch) (int64, int, bool, error) {
	if s.at >= len(s.vals) {
		return 0, 0, true, nil
	}
	n := s.batch
	if rem := len(s.vals) - s.at; n > rem {
		n = rem
	}
	b.Vecs[0].Grow(n)
	b.Sel = nil
	for i := 0; i < n; i++ {
		b.Vecs[0].I64[i] = s.vals[s.at+i]
	}
	b.SetLen(n)
	start := int64(s.at)
	s.at += n
	return start, n, false, nil
}

func mergeAll(t *testing.T, stable []int64, p *PDT, batch int) []int64 {
	t.Helper()
	src := &sliceSource{vals: stable, batch: batch}
	m := NewMerger(src, p, []int{0})
	out := vec.NewBatch(m.Kinds(), 0)
	var got []int64
	var wantStart int64
	for {
		start, n, done, err := m.Next(out)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if start != wantStart {
			t.Fatalf("batch start %d, want %d", start, wantStart)
		}
		wantStart += int64(n)
		for i := 0; i < n; i++ {
			got = append(got, out.Vecs[0].Get(out.RowIndex(i)).Int64())
		}
	}
	return got
}

func checkImage(t *testing.T, stable []int64, p *PDT, model *naiveImage) {
	t.Helper()
	for _, batch := range []int{3, 7, 64} {
		got := mergeAll(t, stable, p, batch)
		if len(got) != len(model.rows) {
			t.Fatalf("batch=%d: image size %d, want %d", batch, len(got), len(model.rows))
		}
		for i := range got {
			if got[i] != model.rows[i][0].Int64() {
				t.Fatalf("batch=%d row %d: %d want %d", batch, i, got[i], model.rows[i][0].Int64())
			}
		}
	}
	if p.ImageRows(int64(len(stable))) != int64(len(model.rows)) {
		t.Fatalf("ImageRows %d, want %d", p.ImageRows(int64(len(stable))), len(model.rows))
	}
}

func stableVals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i * 100)
	}
	return out
}

func row(v int64) []types.Value { return []types.Value{types.NewInt64(v)} }

func TestInsertBasics(t *testing.T) {
	stable := stableVals(5)
	p := New()
	model := newNaive(stable)
	// Insert at front, middle, end.
	for _, at := range []int64{0, 3, 7} {
		if err := p.InsertAt(at, row(-at-1)); err != nil {
			t.Fatal(err)
		}
		model.insert(at, row(-at-1))
	}
	checkImage(t, stable, p, model)
	if p.Len() != 3 || p.Delta() != 3 {
		t.Fatalf("len=%d delta=%d", p.Len(), p.Delta())
	}
}

func TestDeleteBasics(t *testing.T) {
	stable := stableVals(6)
	p := New()
	model := newNaive(stable)
	p.DeleteAt(2)
	model.delete(2)
	p.DeleteAt(2) // deletes what shifted into position 2
	model.delete(2)
	p.DeleteAt(0)
	model.delete(0)
	checkImage(t, stable, p, model)
	if p.Delta() != -3 {
		t.Fatalf("delta=%d", p.Delta())
	}
}

func TestModifyBasics(t *testing.T) {
	stable := stableVals(4)
	p := New()
	model := newNaive(stable)
	p.ModifyAt(1, 0, types.NewInt64(111))
	model.modify(1, 0, types.NewInt64(111))
	p.ModifyAt(1, 0, types.NewInt64(222)) // re-modify same row
	model.modify(1, 0, types.NewInt64(222))
	checkImage(t, stable, p, model)
}

func TestInsertThenDeleteInsert(t *testing.T) {
	stable := stableVals(3)
	p := New()
	model := newNaive(stable)
	p.InsertAt(1, row(-1))
	model.insert(1, row(-1))
	// Deleting the inserted row removes the op entirely.
	p.DeleteAt(1)
	model.delete(1)
	if p.Len() != 0 {
		t.Fatalf("ops=%d after insert+delete", p.Len())
	}
	checkImage(t, stable, p, model)
}

func TestModifyInsertedAndDeleteModified(t *testing.T) {
	stable := stableVals(3)
	p := New()
	model := newNaive(stable)
	p.InsertAt(2, row(-7))
	model.insert(2, row(-7))
	p.ModifyAt(2, 0, types.NewInt64(-8)) // modify own insert in place
	model.modify(2, 0, types.NewInt64(-8))
	if p.Len() != 1 {
		t.Fatalf("modify of insert must not add ops: %d", p.Len())
	}
	p.ModifyAt(0, 0, types.NewInt64(5))
	model.modify(0, 0, types.NewInt64(5))
	p.DeleteAt(0) // delete a modified stable row: mod → del
	model.delete(0)
	checkImage(t, stable, p, model)
}

func TestSIDMapping(t *testing.T) {
	p := New()
	p.InsertAt(3, row(-1)) // image: 0 1 2 [ins] 3 4 ...
	p.DeleteAt(6)          // deletes stable row 5
	if sid, ins := p.Resolve(0); ins || sid != 0 {
		t.Fatalf("rid0 → %d (insert %v)", sid, ins)
	}
	if sid, ins := p.Resolve(4); ins || sid != 3 {
		t.Fatalf("rid4 → %d (insert %v)", sid, ins)
	}
	if sid, ins := p.Resolve(6); ins || sid != 6 { // 5 deleted: rid6 shows stable 6
		t.Fatalf("rid6 → %d (insert %v)", sid, ins)
	}
	sid, ins := p.Resolve(3)
	if !ins || sid != 3 {
		t.Fatalf("resolve insert: %d %v", sid, ins)
	}
	if !p.StableDeleted(5) || p.StableDeleted(4) {
		t.Fatal("StableDeleted wrong")
	}
}

func TestSIDAnchoredAPIs(t *testing.T) {
	stable := stableVals(5)
	p := New()
	model := newNaive(stable)
	p.InsertAtSID(2, row(-1))
	model.insert(2, row(-1))
	p.InsertAtSID(2, row(-2)) // second insert at same anchor: after the first
	model.insert(3, row(-2))
	if err := p.DeleteAtSID(4); err != nil {
		t.Fatal(err)
	}
	model.delete(6) // stable row 4 is at image position 6 now
	if err := p.ModifyAtSID(0, 0, types.NewInt64(42)); err != nil {
		t.Fatal(err)
	}
	model.modify(0, 0, types.NewInt64(42))
	checkImage(t, stable, p, model)
	if err := p.DeleteAtSID(4); err == nil {
		t.Fatal("double delete by SID accepted")
	}
	if err := p.ModifyAtSID(4, 0, types.NewInt64(1)); err == nil {
		t.Fatal("modify of deleted row accepted")
	}
	// Modify then delete via SID APIs.
	if err := p.ModifyAtSID(1, 0, types.NewInt64(7)); err != nil {
		t.Fatal(err)
	}
	if err := p.DeleteAtSID(1); err != nil {
		t.Fatal(err)
	}
	model.modify(1, 0, types.NewInt64(7))
	model.delete(1)
	checkImage(t, stable, p, model)
}

func TestSIDMappingStable(t *testing.T) { // rid mapping with no deltas
	p := New()
	if sid, ins := p.Resolve(7); ins || sid != 7 {
		t.Fatalf("identity mapping broken: %d (insert %v)", sid, ins)
	}
}

func TestClone(t *testing.T) {
	stable := stableVals(5)
	p := New()
	p.InsertAt(2, row(-1))
	p.ModifyAt(0, 0, types.NewInt64(9))
	c := p.Clone()
	p.DeleteAt(4)
	p.ModifyAt(0, 0, types.NewInt64(10))
	// The clone is unaffected.
	model := newNaive(stable)
	model.insert(2, row(-1))
	model.modify(0, 0, types.NewInt64(9))
	checkImage(t, stable, c, model)
}

// Property: random op sequences keep the PDT image identical to the naive
// model, under multiple merge batch sizes.
func TestRandomOpsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		nStable := 20 + rng.Intn(80)
		stable := stableVals(nStable)
		p := New()
		model := newNaive(stable)
		nOps := 100 + rng.Intn(100)
		for o := 0; o < nOps; o++ {
			size := int64(len(model.rows))
			switch op := rng.Intn(3); {
			case op == 0 || size == 0: // insert
				at := rng.Int63n(size + 1)
				v := int64(-(trial*1000 + o))
				p.InsertAt(at, row(v))
				model.insert(at, row(v))
			case op == 1: // delete
				at := rng.Int63n(size)
				p.DeleteAt(at)
				model.delete(at)
			default: // modify
				at := rng.Int63n(size)
				v := types.NewInt64(int64(trial*1000000 + o))
				p.ModifyAt(at, 0, v)
				model.modify(at, 0, v)
			}
		}
		checkImage(t, stable, p, model)
	}
}

func TestMergerStacking(t *testing.T) {
	stable := stableVals(10)
	read := New()
	read.DeleteAt(0)
	read.InsertAt(4, row(-5))
	model := newNaive(stable)
	model.delete(0)
	model.insert(4, row(-5))

	write := New()
	write.ModifyAt(4, 0, types.NewInt64(99)) // modifies the read-inserted row
	model.modify(4, 0, types.NewInt64(99))
	write.InsertAt(0, row(-9))
	model.insert(0, row(-9))
	write.DeleteAt(10)
	model.delete(10)

	src := &sliceSource{vals: stable, batch: 4}
	m1 := NewMerger(src, read, []int{0})
	m2 := NewMerger(m1, write, []int{0})
	out := vec.NewBatch(m2.Kinds(), 0)
	var got []int64
	for {
		_, n, done, err := m2.Next(out)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		for i := 0; i < n; i++ {
			got = append(got, out.Vecs[0].Get(out.RowIndex(i)).Int64())
		}
	}
	if len(got) != len(model.rows) {
		t.Fatalf("stacked image size %d want %d", len(got), len(model.rows))
	}
	for i := range got {
		if got[i] != model.rows[i][0].Int64() {
			t.Fatalf("stacked row %d: %d want %d", i, got[i], model.rows[i][0].Int64())
		}
	}
}

func TestEmptyPDTPassThrough(t *testing.T) {
	stable := stableVals(100)
	p := New()
	got := mergeAll(t, stable, p, 32)
	if len(got) != 100 || got[99] != 9900 {
		t.Fatal("pass-through broken")
	}
}

func TestOpsSnapshotOrdering(t *testing.T) {
	p := New()
	p.InsertAt(5, row(-1))
	p.DeleteAt(2)
	p.ModifyAt(0, 0, types.NewInt64(1))
	ops := p.Ops()
	if len(ops) != 3 {
		t.Fatalf("ops: %d", len(ops))
	}
	for i := 1; i < len(ops); i++ {
		if ops[i-1].SID > ops[i].SID {
			t.Fatalf("ops not SID-sorted: %v", ops)
		}
	}
}

// checkCounts recomputes every node's subtree insert/delete counts from
// scratch and compares them with what the tree carries.
func checkCounts(t *testing.T, p *PDT) {
	t.Helper()
	var walk func(n *node) (ins, del int)
	walk = func(n *node) (int, int) {
		if n == nil {
			return 0, 0
		}
		li, ld := walk(n.left)
		ri, rd := walk(n.right)
		ins, del := li+ri+n.selfIns(), ld+rd+n.selfDel()
		if n.ins != ins || n.del != del {
			t.Fatalf("node (kind %d, sid %d) counts ins=%d del=%d, recomputed %d %d", n.kind, n.sid, n.ins, n.del, ins, del)
		}
		return ins, del
	}
	walk(p.root)
}

// checkOpsCache compares the cached Ops with a fresh walk of the tree: a
// change that forgot to drop the cache leaves them different.
func checkOpsCache(t *testing.T, p *PDT) {
	t.Helper()
	cached, fresh := p.Ops(), p.flatten()
	if len(cached) != len(fresh) {
		t.Fatalf("Ops has %d ops, the tree %d", len(cached), len(fresh))
	}
	for i := range fresh {
		if cached[i].Kind != fresh[i].Kind || cached[i].SID != fresh[i].SID {
			t.Fatalf("op %d is %v, the tree has %v", i, cached[i], fresh[i])
		}
	}
}

// Property: after random streams of inserts, modifies and deletes — by image
// position and by stable SID, including deletes of modified rows, which turn
// a node into a delete in place — every node's counts equal a full
// recompute, the cached Ops equal the tree, and the image still equals the
// model.
func TestCountsMatchRecomputeUnderRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		stable := stableVals(10 + rng.Intn(60))
		p := New()
		model := newNaive(stable)
		for o := 0; o < 150; o++ {
			size := int64(len(model.rows))
			switch op := rng.Intn(6); {
			case op == 0 || size == 0:
				at := rng.Int63n(size + 1)
				p.InsertAt(at, row(int64(-o)))
				model.insert(at, row(int64(-o)))
			case op == 1:
				at := rng.Int63n(size)
				p.ModifyAt(at, 0, types.NewInt64(int64(1000+o)))
				model.modify(at, 0, types.NewInt64(int64(1000+o)))
			case op == 2:
				at := rng.Int63n(size)
				p.DeleteAt(at)
				model.delete(at)
			case op == 5:
				// By SID: an insert lands right before the stable row.
				sid := rng.Int63n(int64(len(stable)))
				if p.StableDeleted(sid) {
					continue
				}
				at := sidPosition(p, sid)
				p.InsertAtSID(sid, row(int64(-3000-o)))
				model.insert(at, row(int64(-3000-o)))
			default:
				// By SID: modify a stable row, then maybe delete it.
				sid := rng.Int63n(int64(len(stable)))
				if p.StableDeleted(sid) {
					continue
				}
				at := sidPosition(p, sid)
				p.ModifyAtSID(sid, 0, types.NewInt64(int64(2000+o)))
				model.modify(at, 0, types.NewInt64(int64(2000+o)))
				if op == 4 {
					checkOpsCache(t, p)
					if err := p.DeleteAtSID(sid); err != nil {
						t.Fatal(err)
					}
					model.delete(at)
				}
			}
			checkCounts(t, p)
			checkOpsCache(t, p)
		}
		checkImage(t, stable, p, model)
	}
}

// sidPosition is the image position of a visible stable row.
func sidPosition(p *PDT, sid int64) int64 {
	for rid := int64(0); ; rid++ {
		if s, ins := p.Resolve(rid); !ins && s == sid {
			return rid
		}
	}
}
