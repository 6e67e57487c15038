package pdt

import (
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// BatchSource is a positional batch stream: every batch comes with the
// image position of its first row. The colstore Scanner satisfies it, and
// Merger satisfies it too — which is what lets PDT layers stack (stable →
// read-PDT image → write-PDT image).
type BatchSource interface {
	// Next fills b and returns the position of its first row, or done.
	Next(b *vec.Batch) (start int64, n int, done bool, err error)
	// Kinds describes the produced vectors.
	Kinds() []types.Kind
}

// Merger merges a PDT snapshot into a positional stream: deletes are
// filtered with a selection vector, modifies patch values (copy-on-write),
// inserts are spliced in order. Batches without deltas pass through
// zero-copy — the common fast path that keeps merge overhead near zero for
// mostly-clean tables (bench/ reports it as pdt.merge_slowdown_x).
//
// The stream may be a projection of the table: deltas hold whole rows and
// table-column modifies, so the merger is told which table column each
// source column is, reads inserted rows through that list and drops
// modifies of columns the stream does not carry. Positions are unaffected —
// every stable row still flows, only narrower.
type Merger struct {
	src   BatchSource
	kinds []types.Kind
	cols  []int // source column i holds table column cols[i]
	srcOf []int // table column → source column, -1 when not projected (see srcCol)
	ops   []Op
	cur   int   // next op to apply
	outAt int64 // image position of the next row we will emit

	selBuf  []int32
	spliced *vec.Batch
	in      *vec.Batch // private input batch: the caller's batch aliases our
	// output buffers between calls, so the source must never fill it directly
}

// NewMerger wraps src — a stream of the table columns cols, in that order —
// with the deltas of p, which must not change while the merger runs.
func NewMerger(src BatchSource, p *PDT, cols []int) *Merger {
	mMergeScans.Inc()
	width := 0
	for _, c := range cols {
		if c >= width {
			width = c + 1
		}
	}
	srcOf := make([]int, width)
	for c := range srcOf {
		srcOf[c] = -1
	}
	for i, c := range cols {
		srcOf[c] = i
	}
	return &Merger{src: src, kinds: src.Kinds(), cols: cols, srcOf: srcOf, ops: p.Ops()}
}

// srcCol maps a table column to its source column, -1 when not projected.
func (m *Merger) srcCol(c int) int {
	if c < len(m.srcOf) {
		return m.srcOf[c]
	}
	return -1
}

// patch applies a modify's projected columns to row at of out.
func (m *Merger) patch(out *vec.Batch, at int, mods map[int]types.Value) {
	for c, v := range mods {
		if i := m.srcCol(c); i >= 0 {
			out.Vecs[i].Set(at, v)
		}
	}
}

// touches reports whether a modify changes any projected column.
func (m *Merger) touches(mods map[int]types.Value) bool {
	for c := range mods {
		if m.srcCol(c) >= 0 {
			return true
		}
	}
	return false
}

// setRow writes an inserted (whole-table) row's projected columns.
func (m *Merger) setRow(out *vec.Batch, at int, row []types.Value) {
	for i, c := range m.cols {
		out.Vecs[i].Set(at, row[c])
	}
}

// Kinds implements BatchSource.
func (m *Merger) Kinds() []types.Kind { return m.kinds }

// DecodedBytes forwards the decode counter of the scanner at the bottom of
// the merge stack, so PROFILE shows what a merged scan decoded.
func (m *Merger) DecodedBytes() int64 {
	if d, ok := m.src.(interface{ DecodedBytes() int64 }); ok {
		return d.DecodedBytes()
	}
	return 0
}

// Next implements BatchSource: emits the merged image in order. The
// caller's batch is overwritten to alias merger-owned storage, valid until
// the next call.
func (m *Merger) Next(b *vec.Batch) (int64, int, bool, error) {
	if m.in == nil {
		m.in = vec.NewBatch(m.kinds, vec.DefaultSize)
	}
	for {
		srcStart, n, done, err := m.src.Next(m.in)
		if err != nil {
			return 0, 0, false, err
		}
		if done {
			// Emit any trailing inserts (anchored at or beyond the end).
			if m.cur < len(m.ops) {
				return m.emitTail(b)
			}
			return 0, 0, true, nil
		}
		// Ops overlapping [srcStart, srcStart+n): ops are SID-sorted and we
		// consume them monotonically.
		lo := m.cur
		hi := lo
		for hi < len(m.ops) && m.ops[hi].SID < srcStart+int64(n) {
			hi++
		}
		if lo == hi {
			// Fast path: untouched range passes through.
			start := m.outAt
			m.outAt += int64(n)
			*b = *m.in
			return start, n, false, nil
		}
		start := m.outAt
		out := m.mergeRange(m.in, srcStart, n, m.ops[lo:hi])
		m.cur = hi
		m.outAt += int64(out.Rows())
		mMergeRows.Add(int64(out.Rows()))
		*b = *out
		if out.Rows() == 0 {
			continue // everything in range was deleted; pull more input
		}
		return start, out.Rows(), false, nil
	}
}

// mergeRange applies ops (all with SID within the batch's logical rows) to
// the batch. Logical row i of the batch has image position srcStart+i; the
// batch may carry a selection vector from a lower merge layer. Without
// inserts the rows keep their places: modifies patch a copy, deletes narrow
// the selection vector.
func (m *Merger) mergeRange(b *vec.Batch, srcStart int64, n int, ops []Op) *vec.Batch {
	dels, mods := 0, 0
	for _, op := range ops {
		switch op.Kind {
		case OpIns:
			return m.splice(b, srcStart, n, ops)
		case OpDel:
			dels++
		case OpMod:
			if m.touches(op.Mods) {
				mods++
			}
		}
	}
	out := b
	if mods > 0 {
		// Copy on write: never scribble on the source's decode buffers.
		out = m.cow(b, n)
		for _, op := range ops {
			if op.Kind == OpMod {
				m.patch(out, int(op.SID-srcStart), op.Mods)
			}
		}
	}
	if dels > 0 {
		out.Sel = m.dropDeleted(out.Sel, srcStart, n, ops)
	}
	return out
}

// dropDeleted returns the selection of the n logical rows (sel, or all of
// them when sel is nil) minus those ops delete, copying the runs between
// the SID-sorted deletes into the merger's selection buffer.
func (m *Merger) dropDeleted(sel []int32, srcStart int64, n int, ops []Op) []int32 {
	if m.selBuf == nil {
		// Never nil: an empty selection means "no rows", nil means "all rows".
		m.selBuf = make([]int32, 0, n)
	}
	keep := m.selBuf[:0]
	from := 0
	for _, op := range ops {
		if op.Kind == OpDel {
			to := int(op.SID - srcStart)
			keep = appendRun(keep, sel, from, to)
			from = to + 1
		}
	}
	m.selBuf = appendRun(keep, sel, from, n)
	return m.selBuf
}

// appendRun appends the physical indexes of logical rows [from, to).
func appendRun(dst, sel []int32, from, to int) []int32 {
	if sel != nil {
		return append(dst, sel[from:to]...)
	}
	for i := from; i < to; i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

// splice is the path with inserts: it assembles the batch row-wise in image
// order.
func (m *Merger) splice(b *vec.Batch, srcStart int64, n int, ops []Op) *vec.Batch {
	out := m.splicedBatch(n + len(ops))
	oi := 0
	k := 0
	for i := 0; i <= n; i++ {
		sid := srcStart + int64(i)
		// Inserts anchored before logical row i.
		for k < len(ops) && ops[k].SID == sid && ops[k].Kind == OpIns {
			m.setRow(out, oi, ops[k].Row)
			oi++
			k++
		}
		if i == n {
			break
		}
		deleted := false
		var mods map[int]types.Value
		for k < len(ops) && ops[k].SID == sid {
			switch ops[k].Kind {
			case OpDel:
				deleted = true
			case OpMod:
				mods = ops[k].Mods
			}
			k++
		}
		if deleted {
			continue
		}
		p := b.RowIndex(i)
		for c := range out.Vecs {
			out.Vecs[c].CopyRow(oi, b.Vecs[c], p)
		}
		m.patch(out, oi, mods)
		oi++
	}
	out.SetLen(oi)
	out.Sel = nil
	return out
}

// cow compacts the batch's logical rows into the merger's own dense batch
// so modifies don't scribble on the scanner's decode buffers.
func (m *Merger) cow(b *vec.Batch, n int) *vec.Batch {
	out := m.splicedBatch(n)
	for c := range b.Vecs {
		out.Vecs[c].CopyFrom(b.Vecs[c], b.Sel, n)
	}
	out.SetLen(n)
	out.Sel = nil
	return out
}

func (m *Merger) splicedBatch(capHint int) *vec.Batch {
	if m.spliced == nil {
		m.spliced = vec.NewBatch(m.kinds, capHint)
	}
	m.spliced.Reset()
	for _, v := range m.spliced.Vecs {
		v.Grow(capHint)
	}
	m.spliced.SetLen(capHint)
	return m.spliced
}

// emitTail produces the inserts anchored at the table end.
func (m *Merger) emitTail(b *vec.Batch) (int64, int, bool, error) {
	ops := m.ops[m.cur:]
	out := m.splicedBatch(len(ops))
	oi := 0
	for _, op := range ops {
		if op.Kind == OpIns {
			m.setRow(out, oi, op.Row)
			oi++
		}
	}
	m.cur = len(m.ops)
	if oi == 0 {
		return 0, 0, true, nil
	}
	out.SetLen(oi)
	start := m.outAt
	m.outAt += int64(oi)
	*b = *out
	return start, oi, false, nil
}
