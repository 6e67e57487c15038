package physical

import (
	"vectorwise/internal/exec"
	"vectorwise/internal/rowengine"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// heapScanOp adapts a heap table into batches of physical (decomposed)
// columns so classic tables participate in vectorized plans. A RID scan
// appends each row's packed RowID as a last BIGINT column.
type heapScanOp struct {
	heap    *rowengine.HeapTable
	logical *types.Schema
	idxs    []int // physical column indexes to produce
	kinds   []types.Kind
	rid     bool

	ctx  *exec.Ctx
	rows [][]types.Value // logical row snapshot
	rids []int64         // packed RowIDs of rows (RID scans only)
	at   int
	buf  *vec.Batch
}

func newHeapScan(h *rowengine.HeapTable, logical *types.Schema, idxs []int, kinds []types.Kind, rid bool) exec.Operator {
	return &heapScanOp{heap: h, logical: logical, idxs: idxs, kinds: kinds, rid: rid}
}

// Kinds implements exec.Operator.
func (h *heapScanOp) Kinds() []types.Kind { return h.kinds }

// Open implements exec.Operator: snapshots the heap (classic engines
// typically latch pages; a snapshot keeps the adapter simple).
func (h *heapScanOp) Open(ctx *exec.Ctx) error {
	h.ctx = ctx
	h.at = 0
	h.rows, h.rids = h.rows[:0], h.rids[:0]
	h.buf = vec.NewBatch(h.kinds, ctx.VecSize)
	if h.buf.Vecs[0].Cap() == 0 {
		h.buf = vec.NewBatch(h.kinds, vec.DefaultSize)
	}
	return h.heap.ScanFunc(func(rid rowengine.RowID, row []types.Value) bool {
		h.rows = append(h.rows, row)
		if h.rid {
			h.rids = append(h.rids, rid.Pack())
		}
		return true
	})
}

// Next implements exec.Operator.
func (h *heapScanOp) Next() (*vec.Batch, error) {
	if err := h.ctx.Ctx.Err(); err != nil {
		return nil, err
	}
	if h.at >= len(h.rows) {
		return nil, nil
	}
	n := h.buf.Vecs[0].Cap()
	if rem := len(h.rows) - h.at; n > rem {
		n = rem
	}
	h.buf.Reset()
	h.buf.SetLen(n)
	for i := 0; i < n; i++ {
		row := h.rows[h.at+i]
		phys := DecomposeRow(h.logical, row)
		for c, pi := range h.idxs {
			h.buf.Vecs[c].Set(i, phys[pi])
		}
	}
	if h.rid {
		copy(h.buf.Vecs[len(h.idxs)].I64, h.rids[h.at:h.at+n])
	}
	h.at += n
	return h.buf, nil
}

// Close implements exec.Operator.
func (h *heapScanOp) Close() {}

// DecomposeRow lays a logical row out in the physical storage convention:
// values (with in-band safe values at NULL positions) followed by the
// indicators of nullable columns.
func DecomposeRow(logical *types.Schema, row []types.Value) []types.Value {
	out := make([]types.Value, 0, len(row)+4)
	for i, v := range row {
		if v.Null {
			out = append(out, types.SafeValue(logical.Cols[i].Type.Kind))
		} else {
			out = append(out, v)
		}
	}
	for i, c := range logical.Cols {
		if c.Type.Nullable {
			out = append(out, types.NewBool(row[i].Null))
		}
	}
	return out
}
