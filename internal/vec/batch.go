package vec

import (
	"fmt"

	"vectorwise/internal/types"
)

// Batch is the unit of data flow between vectorized operators: a set of
// parallel vectors plus an optional selection vector. When Sel is non-nil,
// only the positions it lists are logically present; operators pass
// selection vectors downstream instead of copying data (the X100 approach
// to cheap filters).
type Batch struct {
	Vecs []*Vector
	Sel  []int32 // nil means "all n rows selected"
	n    int     // physical row count in each vector
}

// NewBatch allocates a batch with one vector per kind, each with capacity
// capHint.
func NewBatch(kinds []types.Kind, capHint int) *Batch {
	b := &Batch{Vecs: make([]*Vector, len(kinds))}
	for i, k := range kinds {
		b.Vecs[i] = New(k, capHint)
	}
	return b
}

// NewBatchFromSchema allocates a batch shaped like a schema. NULLable
// logical columns are the rewriter's concern — at the batch level every
// column is a plain physical vector.
func NewBatchFromSchema(s *types.Schema, capHint int) *Batch {
	kinds := make([]types.Kind, s.Len())
	for i, c := range s.Cols {
		kinds[i] = c.Type.Kind
	}
	return NewBatch(kinds, capHint)
}

// Rows returns the logical row count (after selection).
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Full returns the physical row count (before selection).
func (b *Batch) Full() int { return b.n }

// SetLen sets the physical row count and propagates it to every vector.
func (b *Batch) SetLen(n int) {
	b.n = n
	for _, v := range b.Vecs {
		v.SetLen(n)
	}
}

// ForceLen sets the physical row count without touching the vectors; for
// callers that assembled the vectors themselves (aliasing, projections).
func (b *Batch) ForceLen(n int) { b.n = n }

// Reset clears the batch for reuse: zero rows, no selection.
func (b *Batch) Reset() {
	b.n = 0
	b.Sel = nil
	for _, v := range b.Vecs {
		v.Reset()
	}
}

// RowIndex maps a logical row to its physical position.
func (b *Batch) RowIndex(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// GetRow boxes logical row i; slow path for results and tests.
func (b *Batch) GetRow(i int) []types.Value {
	p := b.RowIndex(i)
	out := make([]types.Value, len(b.Vecs))
	for c, v := range b.Vecs {
		out[c] = v.Get(p)
	}
	return out
}

// Clone deep-copies the batch (including materializing any selection).
func (b *Batch) Clone() *Batch {
	out := &Batch{Vecs: make([]*Vector, len(b.Vecs)), n: b.Rows()}
	sel := b.Sel
	for i, v := range b.Vecs {
		nv := New(v.Kind, b.Rows())
		nv.CopyFrom(v, sel, b.Rows())
		out.Vecs[i] = nv
	}
	return out
}

// String renders a short debug form.
func (b *Batch) String() string {
	return fmt.Sprintf("Batch{cols=%d rows=%d sel=%v}", len(b.Vecs), b.Rows(), b.Sel != nil)
}
