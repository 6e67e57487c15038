package pdt

import (
	"fmt"
	"math/rand"
	"testing"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// wideSource replays the cols projection of full-width stable rows — what a
// column-store scanner built over a pruned column list produces.
type wideSource struct {
	rows  [][]types.Value
	cols  []int
	at    int
	batch int
}

var wideKinds = []types.Kind{types.KindInt64, types.KindString, types.KindFloat64, types.KindBool}

func (s *wideSource) Kinds() []types.Kind {
	out := make([]types.Kind, len(s.cols))
	for i, c := range s.cols {
		out[i] = wideKinds[c]
	}
	return out
}

func (s *wideSource) Next(b *vec.Batch) (int64, int, bool, error) {
	if s.at >= len(s.rows) {
		return 0, 0, true, nil
	}
	n := s.batch
	if rem := len(s.rows) - s.at; n > rem {
		n = rem
	}
	b.Sel = nil
	for i, c := range s.cols {
		b.Vecs[i].Grow(n)
		b.Vecs[i].SetLen(n)
		for r := 0; r < n; r++ {
			b.Vecs[i].Set(r, s.rows[s.at+r][c])
		}
	}
	b.SetLen(n)
	start := int64(s.at)
	s.at += n
	return start, n, false, nil
}

func wideRow(i int64) []types.Value {
	return []types.Value{types.NewInt64(i), types.NewString(fmt.Sprintf("s%d", i)),
		types.NewFloat64(float64(i) / 2), types.NewBool(i%2 == 0)}
}

func wideStable(n int) *naiveImage {
	m := &naiveImage{}
	for i := 0; i < n; i++ {
		m.rows = append(m.rows, wideRow(int64(i)))
	}
	return m
}

// checkProjected merges p over every projection in turn and compares each
// with the same projection of the full-row model.
func checkProjected(t *testing.T, stable [][]types.Value, p *PDT, model *naiveImage) {
	t.Helper()
	for _, cols := range [][]int{{0, 1, 2, 3}, {2}, {3, 0}, {1, 3}, {0}} {
		for _, batch := range []int{4, 64} {
			m := NewMerger(&wideSource{rows: stable, cols: cols, batch: batch}, p, cols)
			out := vec.NewBatch(m.Kinds(), 0)
			var got []string
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
					t.Fatalf("cols=%v: batch starts at %d, want %d", cols, start, wantStart)
				}
				wantStart += int64(n)
				for i := 0; i < n; i++ {
					got = append(got, fmt.Sprint(out.GetRow(i)))
				}
			}
			if len(got) != len(model.rows) {
				t.Fatalf("cols=%v batch=%d: %d rows, want %d", cols, batch, len(got), len(model.rows))
			}
			for i, r := range model.rows {
				want := make([]types.Value, len(cols))
				for j, c := range cols {
					want[j] = r[c]
				}
				if got[i] != fmt.Sprint(want) {
					t.Fatalf("cols=%v batch=%d row %d: %s, want %s", cols, batch, i, got[i], fmt.Sprint(want))
				}
			}
		}
	}
}

// Branch one: deletes only — a selection vector over the projected batch.
func TestProjectedMergeDeleteOnly(t *testing.T) {
	model := wideStable(20)
	stable := append([][]types.Value(nil), model.rows...)
	p := New()
	for _, at := range []int64{17, 9, 3, 3} {
		if err := p.DeleteAt(at); err != nil {
			t.Fatal(err)
		}
		model.delete(at)
	}
	checkProjected(t, stable, p, model)
}

// Branch two: copy-on-write modifies. A modify of a projected column patches
// the copy; a modify of a pruned column must leave the stream alone — and
// must not even copy the batch, so the source's vectors pass through.
func TestProjectedMergeModify(t *testing.T) {
	model := wideStable(20)
	stable := append([][]types.Value(nil), model.rows...)
	p := New()
	mod := func(at int64, col int, v types.Value) {
		if err := p.ModifyAt(at, col, v); err != nil {
			t.Fatal(err)
		}
		model.modify(at, col, v)
	}
	mod(2, 2, types.NewFloat64(-1))
	mod(2, 1, types.NewString("both"))
	mod(11, 3, types.NewBool(false))
	mod(12, 0, types.NewInt64(-12))
	if err := p.DeleteAt(5); err != nil {
		t.Fatal(err)
	}
	model.delete(5)
	checkProjected(t, stable, p, model)

	// Only column 1 modified, only column 2 projected: zero-copy passthrough.
	q := New()
	if err := q.ModifyAt(3, 1, types.NewString("unseen")); err != nil {
		t.Fatal(err)
	}
	src := &wideSource{rows: stable, cols: []int{2}, batch: 64}
	m := NewMerger(src, q, []int{2})
	out := vec.NewBatch(m.Kinds(), 0)
	if _, n, _, err := m.Next(out); err != nil || n != 20 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if out.Sel != nil || m.spliced != nil {
		t.Fatal("a modify of a pruned column copied or narrowed the batch")
	}
}

// Branch three: inserts spliced inside a batch and emitted after the last
// one (emitTail), read through the projection, mixed with the other kinds.
func TestProjectedMergeInsertSpliceAndTail(t *testing.T) {
	model := wideStable(10)
	stable := append([][]types.Value(nil), model.rows...)
	p := New()
	ins := func(at int64, row []types.Value) {
		if err := p.InsertAt(at, row); err != nil {
			t.Fatal(err)
		}
		model.insert(at, row)
	}
	ins(0, wideRow(100))
	ins(6, wideRow(101))
	ins(12, wideRow(102)) // at the end: emitTail
	ins(13, wideRow(103))
	if err := p.ModifyAt(6, 2, types.NewFloat64(7.5)); err != nil { // modifies the inserted row
		t.Fatal(err)
	}
	model.modify(6, 2, types.NewFloat64(7.5))
	if err := p.ModifyAt(3, 1, types.NewString("stable-mod")); err != nil {
		t.Fatal(err)
	}
	model.modify(3, 1, types.NewString("stable-mod"))
	if err := p.DeleteAt(8); err != nil {
		t.Fatal(err)
	}
	model.delete(8)
	checkProjected(t, stable, p, model)
}

// Random ops, two stacked layers (snapshot read-PDT, then write-PDT), a
// random projection and batch size: the merged stream equals the
// projection of the model. The same check runs under FuzzMergerAgainstModel.
func TestProjectedMergeRandomStacked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 100; round++ {
		data := make([]byte, 64+rng.Intn(192))
		rng.Read(data)
		checkStacked(t, data)
	}
}

// FuzzMergerAgainstModel is TestProjectedMergeRandomStacked driven by fuzz
// bytes instead of a seeded generator.
func FuzzMergerAgainstModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{40, 0, 4, 6, 12, 0, 5, 1, 7, 2, 9, 3, 1, 12, 2, 3, 0, 1, 4, 2, 2, 1, 8})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		data := make([]byte, 200)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkStacked)
}

// choices hands out small decisions from a byte string; once it runs out,
// every decision is 0.
type choices []byte

func (c *choices) next(n int) int {
	if len(*c) == 0 {
		return 0
	}
	v := int((*c)[0]) % n
	*c = (*c)[1:]
	return v
}

// checkStacked builds a stable table, two PDT layers of random inserts,
// deletes and modifies, a projection and a batch size from data, and
// compares the stacked merge with the row model.
func checkStacked(t *testing.T, data []byte) {
	c := choices(data)
	model := wideStable(c.next(48))
	stable := append([][]types.Value(nil), model.rows...)
	order := rand.New(rand.NewSource(int64(c.next(256)))).Perm(4)
	cols := order[:1+c.next(4)]
	batch := 1 + c.next(16)
	layers := []*PDT{New(), New()}
	for _, p := range layers {
		for i, ops := 0, c.next(24); i < ops; i++ {
			n := int64(len(model.rows))
			switch k := c.next(3); {
			case k == 0 || n == 0:
				at, row := int64(c.next(int(n)+1)), wideRow(int64(1000+c.next(100)))
				if err := p.InsertAt(at, row); err != nil {
					t.Fatal(err)
				}
				model.insert(at, row)
			case k == 1:
				at := int64(c.next(int(n)))
				if err := p.DeleteAt(at); err != nil {
					t.Fatal(err)
				}
				model.delete(at)
			default:
				at, col := int64(c.next(int(n))), c.next(4)
				v := wideRow(int64(2000 + c.next(100)))[col]
				if err := p.ModifyAt(at, col, v); err != nil {
					t.Fatal(err)
				}
				model.modify(at, col, v)
			}
		}
	}
	src := &wideSource{rows: stable, cols: cols, batch: batch}
	m := NewMerger(NewMerger(src, layers[0], cols), layers[1], cols)
	out := vec.NewBatch(m.Kinds(), 0)
	at := 0
	for {
		start, n, done, err := m.Next(out)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if start != int64(at) {
			t.Fatalf("cols=%v batch=%d: a batch starts at %d, want %d", cols, batch, start, at)
		}
		for i := 0; i < n; i++ {
			if at >= len(model.rows) {
				t.Fatalf("cols=%v batch=%d: more than %d rows", cols, batch, len(model.rows))
			}
			got := out.GetRow(i)
			for j, col := range cols {
				if want := model.rows[at][col]; fmt.Sprint(got[j]) != fmt.Sprint(want) {
					t.Fatalf("cols=%v batch=%d row %d col %d: %v, want %v", cols, batch, at, col, got[j], want)
				}
			}
			at++
		}
	}
	if at != len(model.rows) {
		t.Fatalf("cols=%v batch=%d: %d rows, want %d", cols, batch, at, len(model.rows))
	}
}
