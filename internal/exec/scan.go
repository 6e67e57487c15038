package exec

import (
	"vectorwise/internal/pdt"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// ColScan adapts a positional batch source into an operator, polling for
// cancellation between vectors. Engine plans scan vectorwise tables through
// MorselScan; ColScan serves callers that already hold a source.
type ColScan struct {
	// SourceFn defers source construction to Open so the vector size and
	// snapshot are taken at execution time.
	SourceFn func(vecSize int) (pdt.BatchSource, error)
	kinds    []types.Kind

	ctx *Ctx
	src pdt.BatchSource
	buf *vec.Batch
}

// NewColScan builds a scan over a deferred source with the given output
// kinds.
func NewColScan(kinds []types.Kind, sourceFn func(vecSize int) (pdt.BatchSource, error)) *ColScan {
	return &ColScan{SourceFn: sourceFn, kinds: kinds}
}

// Kinds implements Operator.
func (s *ColScan) Kinds() []types.Kind { return s.kinds }

// Open implements Operator.
func (s *ColScan) Open(ctx *Ctx) error {
	s.ctx = ctx
	src, err := s.SourceFn(ctx.vecSize())
	if err != nil {
		return err
	}
	s.src = src
	s.buf = vec.NewBatch(s.kinds, ctx.vecSize())
	return nil
}

// Next implements Operator.
func (s *ColScan) Next() (*vec.Batch, error) {
	if err := s.ctx.poll(); err != nil {
		return nil, err
	}
	_, _, done, err := s.src.Next(s.buf)
	if err != nil || done {
		return nil, err
	}
	return s.buf, nil
}

// Close implements Operator.
func (s *ColScan) Close() {}

// Values is a literal-rows operator (VALUES lists, tests).
type Values struct {
	Schema *types.Schema
	Rows   [][]types.Value

	ctx *Ctx
	at  int
	buf *vec.Batch
}

// NewValues builds a Values operator.
func NewValues(schema *types.Schema, rows [][]types.Value) *Values {
	return &Values{Schema: schema, Rows: rows}
}

// Kinds implements Operator.
func (v *Values) Kinds() []types.Kind {
	out := make([]types.Kind, v.Schema.Len())
	for i, c := range v.Schema.Cols {
		out[i] = c.Type.Kind
	}
	return out
}

// Open implements Operator.
func (v *Values) Open(ctx *Ctx) error {
	v.ctx = ctx
	v.at = 0
	v.buf = vec.NewBatch(v.Kinds(), ctx.vecSize())
	return nil
}

// Next implements Operator.
func (v *Values) Next() (*vec.Batch, error) {
	if err := v.ctx.poll(); err != nil {
		return nil, err
	}
	if v.at >= len(v.Rows) {
		return nil, nil
	}
	n := v.ctx.vecSize()
	if rem := len(v.Rows) - v.at; n > rem {
		n = rem
	}
	v.buf.Reset()
	v.buf.SetLen(n)
	for i := 0; i < n; i++ {
		for c, val := range v.Rows[v.at+i] {
			v.buf.Vecs[c].Set(i, val)
		}
	}
	v.at += n
	return v.buf, nil
}

// Close implements Operator.
func (v *Values) Close() {}

// BatchSupplier replays pre-built batches; the exchange operators and tests
// use it.
type BatchSupplier struct {
	kinds   []types.Kind
	Batches []*vec.Batch
	at      int
	ctx     *Ctx
}

// NewBatchSupplier builds a supplier.
func NewBatchSupplier(kinds []types.Kind, batches []*vec.Batch) *BatchSupplier {
	return &BatchSupplier{kinds: kinds, Batches: batches}
}

// Kinds implements Operator.
func (s *BatchSupplier) Kinds() []types.Kind { return s.kinds }

// Open implements Operator.
func (s *BatchSupplier) Open(ctx *Ctx) error { s.ctx = ctx; s.at = 0; return nil }

// Next implements Operator.
func (s *BatchSupplier) Next() (*vec.Batch, error) {
	if err := s.ctx.poll(); err != nil {
		return nil, err
	}
	if s.at >= len(s.Batches) {
		return nil, nil
	}
	b := s.Batches[s.at]
	s.at++
	return b, nil
}

// Close implements Operator.
func (s *BatchSupplier) Close() {}
