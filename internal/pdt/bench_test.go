package pdt

import (
	"testing"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// replaySource hands out the same prebuilt batch again and again at
// advancing positions: a stable stream that costs nothing per row, so what
// a test or benchmark measures over it is the merger.
type replaySource struct {
	full    *vec.Batch
	batches int
	at      int
}

func newReplaySource(rows, batches int) *replaySource {
	b := vec.NewBatch(wideKinds, rows)
	b.SetLen(rows)
	for i := 0; i < rows; i++ {
		for c, v := range wideRow(int64(i)) {
			b.Vecs[c].Set(i, v)
		}
	}
	return &replaySource{full: b, batches: batches}
}

func (s *replaySource) Kinds() []types.Kind { return wideKinds }

func (s *replaySource) Next(b *vec.Batch) (int64, int, bool, error) {
	if s.at == s.batches {
		return 0, 0, true, nil
	}
	*b = *s.full
	n := b.Full()
	start := int64(s.at * n)
	s.at++
	return start, n, false, nil
}

// deltasEvery puts, every step stable rows, a modify of columns 0 and 1
// (when mods) and a delete (when dels) over a stream of rows rows.
func deltasEvery(t testing.TB, rows, step int64, mods, dels bool) *PDT {
	p := New()
	for sid := int64(0); sid+step/2 < rows; sid += step {
		if mods {
			if err := p.ModifyAtSID(sid, 0, types.NewInt64(-sid)); err != nil {
				t.Fatal(err)
			}
			if err := p.ModifyAtSID(sid, 1, types.NewString("mod")); err != nil {
				t.Fatal(err)
			}
		}
		if dels {
			if err := p.DeleteAtSID(sid + step/2); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

// After its first batch a merger allocates nothing, whether a batch's
// deletes narrow the selection vector or its modifies patch a copy.
func TestMergerAllocatesNothingPerBatch(t *testing.T) {
	const rows, batches = 64, 300
	for _, tc := range []struct {
		name       string
		mods, dels bool
	}{{"deletes-only", false, true}, {"modifies", true, false}, {"modifies+deletes", true, true}} {
		p := deltasEvery(t, rows*batches, 16, tc.mods, tc.dels)
		cols := []int{0, 1, 2, 3}
		m := NewMerger(newReplaySource(rows, batches), p, cols)
		out := vec.NewBatch(m.Kinds(), 0)
		next := func() {
			if _, n, done, err := m.Next(out); err != nil || done || n == 0 {
				t.Fatalf("%s: n=%d done=%v err=%v", tc.name, n, done, err)
			}
		}
		next()
		if a := testing.AllocsPerRun(100, next); a != 0 {
			t.Fatalf("%s: %.1f allocations per batch", tc.name, a)
		}
	}
}

// Merge benchmarks: 64 batches of 1024 rows, 1 % of them deleted or
// modified, every column projected. MB/s reads as Mrows/s.
const benchRows, benchBatches = 1024, 64

func benchMerge(b *testing.B, p *PDT) {
	src := newReplaySource(benchRows, benchBatches)
	cols := []int{0, 1, 2, 3}
	out := vec.NewBatch(wideKinds, 0)
	b.SetBytes(benchRows * benchBatches)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.at = 0
		m := NewMerger(src, p, cols)
		for {
			_, _, done, err := m.Next(out)
			if err != nil {
				b.Fatal(err)
			}
			if done {
				break
			}
		}
	}
}

func BenchmarkMergeDeletesOnly(b *testing.B) {
	benchMerge(b, deltasEvery(b, benchRows*benchBatches, 100, false, true))
}

func BenchmarkMergeModifies(b *testing.B) {
	benchMerge(b, deltasEvery(b, benchRows*benchBatches, 100, true, false))
}
