package exec

import (
	"vectorwise/internal/pdt"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// ColScan adapts a positional batch source (a colstore scanner, possibly
// wrapped in PDT mergers by the txn layer) into an operator, polling for
// cancellation between vectors.
type ColScan struct {
	// SourceFn defers source construction to Open so the vector size and
	// snapshot are taken at execution time.
	SourceFn func(vecSize int) (pdt.BatchSource, error)
	kinds    []types.Kind

	ctx *Ctx
	src pdt.BatchSource
	buf *vec.Batch

	// Set by ProjectRID: out is buf's vectors plus rid, the image position of
	// every row.
	withRID bool
	rid     *vec.Vector
	out     vec.Batch
}

// NewColScan builds a scan over a deferred source with the given output
// kinds.
func NewColScan(kinds []types.Kind, sourceFn func(vecSize int) (pdt.BatchSource, error)) *ColScan {
	return &ColScan{SourceFn: sourceFn, kinds: kinds}
}

// ProjectRID makes the scan emit, after the source's columns, one BIGINT
// vector holding each row's position in the scanned image — what
// txn.UpdateAt and DeleteAt address rows by. Call before Open.
func (s *ColScan) ProjectRID() { s.withRID = true }

// Kinds implements Operator.
func (s *ColScan) Kinds() []types.Kind {
	if s.withRID {
		return append(s.kinds[:len(s.kinds):len(s.kinds)], types.KindInt64)
	}
	return s.kinds
}

// Open implements Operator.
func (s *ColScan) Open(ctx *Ctx) error {
	s.ctx = ctx
	src, err := s.SourceFn(ctx.vecSize())
	if err != nil {
		return err
	}
	s.src = src
	s.buf = vec.NewBatch(s.kinds, ctx.vecSize())
	if s.withRID {
		s.rid = vec.New(types.KindInt64, ctx.vecSize())
	}
	return nil
}

// Next implements Operator.
func (s *ColScan) Next() (*vec.Batch, error) {
	if err := s.ctx.poll(); err != nil {
		return nil, err
	}
	start, n, done, err := s.src.Next(s.buf)
	if err != nil {
		return nil, err
	}
	if done {
		return nil, nil
	}
	if s.withRID {
		return s.appendRID(start, n), nil
	}
	return s.buf, nil
}

// appendRID numbers the n logical rows of the batch the source just filled:
// logical row i sits at image position start+i, whatever selection vector a
// merger narrowed the batch with, and its number goes where its values are.
// The output batch is rebuilt from buf every time, because a merger may
// have re-pointed buf at vectors of its own.
func (s *ColScan) appendRID(start int64, n int) *vec.Batch {
	full := s.buf.Full()
	s.rid.Grow(full)
	s.rid.SetLen(full)
	ids := s.rid.I64
	if s.buf.Sel == nil {
		for i := 0; i < n; i++ {
			ids[i] = start + int64(i)
		}
	} else {
		for i, p := range s.buf.Sel[:n] {
			ids[p] = start + int64(i)
		}
	}
	s.out.Vecs = append(append(s.out.Vecs[:0], s.buf.Vecs...), s.rid)
	s.out.Sel = s.buf.Sel
	s.out.ForceLen(full)
	return &s.out
}

// Close implements Operator.
func (s *ColScan) Close() {}

// SkipStats reports (skipped, total) row groups when the underlying source
// does min/max block skipping; zeros otherwise (e.g. the PDT-merge path).
// Read after the query drains — the profiling shell calls it from Stats.
func (s *ColScan) SkipStats() (int64, int64) {
	if gs, ok := s.src.(GroupSkipping); ok {
		return int64(gs.SkippedGroups()), int64(gs.TotalGroups())
	}
	return 0, 0
}

// SkippedByteStats reports the encoded bytes of the skipped groups when the
// source tracks them.
func (s *ColScan) SkippedByteStats() int64 {
	if bs, ok := s.src.(ByteSkipping); ok {
		return bs.SkippedBytes()
	}
	return 0
}

// DecodedByteStats reports the encoded bytes the source decoded.
func (s *ColScan) DecodedByteStats() int64 {
	if bd, ok := s.src.(ByteDecoding); ok {
		return bd.DecodedBytes()
	}
	return 0
}

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
