// Package colstore implements the compressed columnar table storage of the
// Vectorwise kernel: append-only columns chopped into fixed-size row groups
// ("blocks"), each block compressed with an adaptively chosen codec
// (PFOR / PFOR-DELTA / RLE / PDICT) and carrying min/max summaries for
// block skipping. All columns share row-group boundaries, giving the
// PAX-like property that one row group is a self-contained horizontal
// partition of vertical slices — the "hybrid PAX/DSM" storage of the paper.
//
// Tables here are *stable* storage: immutable once written except for
// appends of whole new row groups. Updates and deletes never touch blocks;
// they live in Positional Delta Trees (internal/pdt) until a checkpoint
// rewrites the table — exactly the paper's PDT-based transaction design.
package colstore

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"vectorwise/internal/compress"
	"vectorwise/internal/metrics"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// Append instrumentation: one atomic add per flushed row group, mirroring
// the scan-side counters in scan.go.
var (
	mRowsAppended  = metrics.Default.Counter("colstore_rows_appended_total")
	mGroupsFlushed = metrics.Default.Counter("colstore_groups_flushed_total")
)

// BlockRows is the number of rows per row group. Large enough for the
// codecs to find structure, small enough for effective min/max skipping.
const BlockRows = 16384

// Block is one compressed column slice plus its summary. Data is a view
// into the row group's frame (see appendFrame) and must not be written.
type Block struct {
	Rows  int
	Codec compress.Codec
	Data  []byte
	// Min/Max are value summaries for skipping; meaningful for all kinds
	// (string bounds enable prefix-range skipping too).
	Min, Max types.Value
}

// Column is a sequence of blocks of one physical column.
type Column struct {
	Type   types.T
	Blocks []Block
}

// Table is a columnar table: parallel columns with shared row-group
// boundaries.
type Table struct {
	mu     sync.RWMutex
	schema *types.Schema
	cols   []Column
	frames [][]byte // per row group: the bytes every Block.Data of the group aliases
	rows   int64
	// clustered[c] records that column c's blocks are ascending and
	// non-overlapping (prev.Max <= next.Min), i.e. its zone maps form an
	// ordered index: a range predicate prunes to a contiguous group
	// interval found by binary search. Vacuously true on an empty table;
	// maintained incrementally on every flush, so only order-preserving
	// loads (the clustered bulk loader, or accidentally sorted appends)
	// keep it.
	clustered []bool
}

// NewTable creates an empty table with the given physical schema. NULLable
// logical columns must already be decomposed by the caller into a value
// column and a BOOL indicator column (claim C6).
func NewTable(schema *types.Schema) *Table {
	t := &Table{schema: schema.Clone(), cols: make([]Column, schema.Len()),
		clustered: make([]bool, schema.Len())}
	for i, c := range schema.Cols {
		t.cols[i].Type = c.Type
		t.clustered[i] = true
	}
	return t
}

// Schema returns the table's physical schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Rows returns the current stable row count.
func (t *Table) Rows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// NumBlocks returns the number of row groups.
func (t *Table) NumBlocks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0].Blocks)
}

// BlockMeta returns the (rows, codec) of column col's block b, for
// introspection and tests.
func (t *Table) BlockMeta(col, b int) (int, compress.Codec) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	blk := &t.cols[col].Blocks[b]
	return blk.Rows, blk.Codec
}

// ColumnSummary folds one column's per-block min/max summaries into table-
// wide bounds. The optimizer uses them to tighten scan cardinality
// estimates when ANALYZE histograms are absent.
func (t *Table) ColumnSummary(col int) (min, max types.Value, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if col < 0 || col >= len(t.cols) || len(t.cols[col].Blocks) == 0 {
		return types.Value{}, types.Value{}, false
	}
	blocks := t.cols[col].Blocks
	min, max = blocks[0].Min, blocks[0].Max
	for i := 1; i < len(blocks); i++ {
		if types.Compare(blocks[i].Min, min) < 0 {
			min = blocks[i].Min
		}
		if types.Compare(blocks[i].Max, max) > 0 {
			max = blocks[i].Max
		}
	}
	return min, max, true
}

// Clustered reports whether column col's blocks are ordered and
// non-overlapping, so its zone maps support interval pruning.
func (t *Table) Clustered(col int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return col >= 0 && col < len(t.clustered) && t.clustered[col]
}

// ClusteredWindow intersects the filters' bounds against every clustered
// column's ordered zone maps, returning the contiguous row-group interval
// [lo, hi) that can contain matching rows. Filters on unclustered columns
// contribute nothing (their groups interleave); with no clustered filter
// the window is the whole table. hi == lo means no group can match.
func (t *Table) ClusteredWindow(filters []RangeFilter) (lo, hi int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	blocks := make([][]Block, len(t.cols))
	for i := range t.cols {
		blocks[i] = t.cols[i].Blocks
	}
	n := 0
	if len(t.cols) > 0 {
		n = len(t.cols[0].Blocks)
	}
	return clusteredWindow(blocks, t.clustered, filters, n)
}

// clusteredWindow is the snapshot-friendly core of ClusteredWindow: binary
// search over ordered per-group summaries instead of a per-group check.
// Clustering makes Min and Max non-decreasing across groups, so both
// predicates below are monotone.
func clusteredWindow(blocks [][]Block, clustered []bool, filters []RangeFilter, n int) (lo, hi int) {
	lo, hi = 0, n
	for _, f := range filters {
		if f.Col < 0 || f.Col >= len(clustered) || !clustered[f.Col] {
			continue
		}
		col := blocks[f.Col]
		if f.Lo != nil {
			// First group whose Max reaches the lower bound.
			g := sort.Search(n, func(g int) bool {
				return types.Compare(col[g].Max, *f.Lo) >= 0
			})
			if g > lo {
				lo = g
			}
		}
		if f.Hi != nil {
			// First group whose Min exceeds the upper bound.
			g := sort.Search(n, func(g int) bool {
				return types.Compare(col[g].Min, *f.Hi) > 0
			})
			if g < hi {
				hi = g
			}
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// AccountWindowPrune records the groups outside [lo, hi) as skipped in the
// scan metrics and returns them: their count and the encoded bytes of the
// projected columns. Morsel sources that narrow the offered group set call
// this once per scan — worker scanners never even see the pruned groups.
func (t *Table) AccountWindowPrune(cols []int, lo, hi int) (pruned int, bytes int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	if len(t.cols) > 0 {
		n = len(t.cols[0].Blocks)
	}
	pruned = lo + (n - hi)
	if pruned <= 0 {
		return 0, 0
	}
	for _, c := range cols {
		for g := 0; g < lo; g++ {
			bytes += int64(len(t.cols[c].Blocks[g].Data))
		}
		for g := hi; g < n; g++ {
			bytes += int64(len(t.cols[c].Blocks[g].Data))
		}
	}
	mGroupsSkipped.Add(int64(pruned))
	mBytesSkipped.Add(bytes)
	return pruned, bytes
}

// CompressedBytes totals the encoded size of all blocks.
func (t *Table) CompressedBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n int64
	for i := range t.cols {
		for j := range t.cols[i].Blocks {
			n += int64(len(t.cols[i].Blocks[j].Data))
		}
	}
	return n
}

// Appender buffers rows and flushes full row groups into the table.
type Appender struct {
	t    *Table
	buf  *vec.Batch
	enc  compress.Encoder
	wide []int64 // INT, DATE, DOUBLE and BOOL values widened for enc
}

// NewAppender creates an appender for t.
func (t *Table) NewAppender() *Appender {
	return &Appender{t: t, buf: vec.NewBatchFromSchema(t.schema, BlockRows)}
}

// AppendBatch adds all (selected) rows of b.
func (a *Appender) AppendBatch(b *vec.Batch) error {
	if len(b.Vecs) != len(a.t.cols) {
		return fmt.Errorf("colstore: batch has %d columns, table has %d", len(b.Vecs), len(a.t.cols))
	}
	n := b.Rows()
	for r := 0; r < n; r++ {
		p := b.RowIndex(r)
		row := a.buf.Full()
		for c, v := range b.Vecs {
			a.buf.Vecs[c].Set(row, v.Get(p))
		}
		a.buf.SetLen(row + 1)
		if a.buf.Full() == BlockRows {
			if err := a.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// AppendRow adds one boxed row (slow path: INSERT statements, loaders).
func (a *Appender) AppendRow(row []types.Value) error {
	if len(row) != len(a.t.cols) {
		return fmt.Errorf("colstore: row has %d values, table has %d columns", len(row), len(a.t.cols))
	}
	r := a.buf.Full()
	for c, v := range row {
		a.buf.Vecs[c].Set(r, v)
	}
	a.buf.SetLen(r + 1)
	if a.buf.Full() == BlockRows {
		return a.Flush()
	}
	return nil
}

// Flush writes the buffered rows as a (possibly partial) row group. Called
// automatically at block boundaries and by Close.
func (a *Appender) Flush() error {
	n := a.buf.Full()
	if n == 0 {
		return nil
	}
	t := a.t
	t.mu.Lock()
	defer t.mu.Unlock()
	blks := make([]Block, len(t.cols))
	for c := range t.cols {
		var err error
		if blks[c], err = a.encodeBlock(t.cols[c].Type.Kind, a.buf.Vecs[c], n); err != nil {
			return err
		}
	}
	for c, blk := range blks {
		if prev := t.cols[c].Blocks; len(prev) > 0 && t.clustered[c] &&
			types.Compare(blk.Min, prev[len(prev)-1].Max) < 0 {
			t.clustered[c] = false
		}
		t.cols[c].Blocks = append(t.cols[c].Blocks, blk)
	}
	t.appendFrame()
	t.rows += int64(n)
	mRowsAppended.Add(int64(n))
	mGroupsFlushed.Inc()
	a.buf.Reset()
	return nil
}

// Close flushes any partial row group.
func (a *Appender) Close() error { return a.Flush() }

// encodeBlock compresses n leading values of v. The widening buffer and the
// encoder's working memory are the appender's, reused block after block.
func (a *Appender) encodeBlock(kind types.Kind, v *vec.Vector, n int) (Block, error) {
	blk := Block{Rows: n}
	if cap(a.wide) < n {
		a.wide = make([]int64, n)
	}
	wide := a.wide[:n]
	switch kind {
	case types.KindInt32, types.KindDate:
		tmp := wide
		for i := 0; i < n; i++ {
			tmp[i] = int64(v.I32[i])
		}
		blk.Data, blk.Codec = a.enc.ChooseInt64(nil, tmp)
		lo, hi := minMaxI64(tmp)
		blk.Min, blk.Max = mkIntVal(kind, lo), mkIntVal(kind, hi)
	case types.KindInt64:
		tmp := v.I64[:n]
		blk.Data, blk.Codec = a.enc.ChooseInt64(nil, tmp)
		lo, hi := minMaxI64(tmp)
		blk.Min, blk.Max = types.NewInt64(lo), types.NewInt64(hi)
	case types.KindFloat64:
		tmp := wide
		lo, hi := math.Inf(1), math.Inf(-1)
		hasNaN := false
		for i := 0; i < n; i++ {
			f := v.F64[i]
			tmp[i] = int64(math.Float64bits(f))
			if math.IsNaN(f) {
				hasNaN = true
				continue
			}
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		if hasNaN {
			// NaN is unordered, so it can never widen lo/hi through the
			// comparisons above; an all-NaN block would summarize as
			// Min=+Inf, Max=-Inf and be wrongly pruned by skipGroup. Widen
			// the summary to ±Inf so NaN-carrying blocks are never skipped.
			lo, hi = math.Inf(-1), math.Inf(1)
		}
		blk.Data, blk.Codec = a.enc.ChooseInt64(nil, tmp)
		blk.Min, blk.Max = types.NewFloat64(lo), types.NewFloat64(hi)
	case types.KindBool:
		tmp := wide
		anyT, anyF := false, false
		for i := 0; i < n; i++ {
			if v.Bool[i] {
				tmp[i] = 1
				anyT = true
			} else {
				tmp[i] = 0
				anyF = true
			}
		}
		blk.Data, blk.Codec = a.enc.ChooseInt64(nil, tmp)
		blk.Min, blk.Max = types.NewBool(!anyF), types.NewBool(anyT)
	case types.KindString:
		tmp := v.Str[:n]
		blk.Data, blk.Codec = a.enc.ChooseString(nil, tmp)
		lo, hi := tmp[0], tmp[0]
		for _, s := range tmp {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		blk.Min, blk.Max = types.NewString(lo), types.NewString(hi)
	default:
		return Block{}, fmt.Errorf("colstore: cannot store kind %v", kind)
	}
	return blk, nil
}

func mkIntVal(kind types.Kind, v int64) types.Value {
	if kind == types.KindDate {
		return types.NewDate(int32(v))
	}
	return types.NewInt32(int32(v))
}

func minMaxI64(vals []int64) (int64, int64) {
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// decodeBlock decompresses the rows-row block data straight into dst's typed
// storage (grown if needed). data must hold exactly that one block: a row
// count other than rows, or bytes left over, is corruption.
func decodeBlock(kind types.Kind, data []byte, rows int, dst *vec.Vector, strs *compress.StringDecoder) error {
	dst.Grow(rows)
	dst.SetLen(rows)
	var rest []byte
	var err error
	switch kind {
	case types.KindInt64:
		rest, err = compress.DecodeInts(dst.I64[:rows], data)
	case types.KindInt32, types.KindDate:
		rest, err = compress.DecodeInts(dst.I32[:rows], data)
	case types.KindFloat64:
		rest, err = compress.DecodeFloat64s(dst.F64[:rows], data)
	case types.KindBool:
		rest, err = compress.DecodeBools(dst.Bool[:rows], data)
	case types.KindString:
		rest, err = strs.Decode(dst.Str[:rows], data)
	default:
		return fmt.Errorf("colstore: cannot decode kind %v", kind)
	}
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d bytes after the block", compress.ErrCorrupt, len(rest))
	}
	return nil
}
