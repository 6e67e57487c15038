package colstore

import (
	"context"
	"fmt"
	"slices"

	"vectorwise/internal/compress"
	"vectorwise/internal/metrics"
	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// Scan instrumentation: group-level counters cost one atomic add per row
// group (16K rows), not per vector; the rows dropped on codes cost one per
// vector that drops any.
var (
	mGroupsScanned = metrics.Default.Counter("colstore_groups_scanned_total")
	mGroupsSkipped = metrics.Default.Counter("colstore_groups_skipped_total")
	mBytesDecoded  = metrics.Default.Counter("colstore_bytes_decompressed_total")
	mBytesSkipped  = metrics.Default.Counter("colstore_bytes_skipped_total")
	mRowsScanned   = metrics.Default.Counter("colstore_rows_scanned_total")
	mRowsCodeDrop  = metrics.Default.Counter("colstore_rows_dropped_on_codes_total")
)

// Scanner reads a projection of a table vector-at-a-time, in row order,
// decoding each row group once and slicing vectors out of it. On morsel
// scanners, min/max block skipping prunes row groups that cannot satisfy the
// provided range filters — the sparse-index benefit of the PAX/DSM layout —
// and a filter on a dictionary-coded string column runs on the codes (see
// codeFilter), so the scan drops rows before their strings exist.
type Scanner struct {
	t       *Table
	cols    []int
	vecSize int
	filters []RangeFilter
	code    []codeFilter
	coded   []*codeFilter // per projected column: its filter, while on codes
	sel     []int32       // the rows of the current vector the codes pass
	dropped int64

	// Snapshot of the block lists (appends after creation are invisible).
	blocks  [][]Block
	nGroups int

	group     int // current row group
	limit     int // first group past the scan window (exclusive)
	offset    int // row offset within the group
	seekBase  int // SeekGroup offset: morsel g maps to group seekBase+g
	rowBase   int64
	prefix    []int64       // per-group starting SIDs (built on first SeekGroup)
	decoded   []*vec.Vector // decoded vectors per projected column
	strs      compress.StringDecoder
	loaded    bool
	skipped   int
	total     int // row groups this scanner covers (its partition)
	skipBytes int64
	decBytes  int64

	// When src is set, group bytes come through the buffer manager instead
	// of the block snapshot; pending holds the current group's per-column
	// payloads (delivered out of band via SeekGroupData, or fetched lazily)
	// while havePending is set, and keeps its storage between groups.
	src         BlockSource
	srcCtx      context.Context
	pending     [][]byte
	havePending bool
}

// RangeFilter restricts a column to [Lo, Hi] (inclusive; either may be nil
// to leave that side open). A scanner may drop any row outside the range —
// whole groups by their summaries, single rows by their dictionary codes —
// but need not drop them all: exact filtering remains the Select operator's
// job.
type RangeFilter struct {
	Col    int
	Lo, Hi *types.Value
}

// codeFilter is a range filter on a projected string column, run on the
// dictionary codes whenever the column's block in the current group is
// PDICT. The dictionary is sorted, so the range becomes one code interval
// per group (an empty one skips the group: a dictionary-level zone map); the
// scan selects on the codes of each vector and gathers strings only at the
// rows that pass. The bounds are compared in Go string order, as the Select
// kernels compare.
type codeFilter struct {
	proj     int // position of the column in the projection
	lo, hi   *string
	dec      compress.StringDecoder
	blk      compress.DictBlock
	codes    []int32 // the group's codes
	from, to int32   // the group's code interval [from, to)
	all      bool    // every code of the group is in the interval
}

// codeFilters builds one code filter per range on a projected string column
// (the optimizer pairs a string column with string bounds only).
func codeFilters(t *Table, cols []int, filters []RangeFilter) []codeFilter {
	var out []codeFilter
	for _, f := range filters {
		proj := slices.Index(cols, f.Col)
		if proj < 0 || t.cols[f.Col].Type.Kind != types.KindString {
			continue
		}
		cf := codeFilter{proj: proj}
		if f.Lo != nil {
			cf.lo = &f.Lo.Str
		}
		if f.Hi != nil {
			cf.hi = &f.Hi.Str
		}
		out = append(out, cf)
	}
	return out
}

// NewMorselScanner creates a scanner that starts exhausted: it serves one
// row-group morsel at a time via SeekGroup, reusing its decode buffers
// across seeks. This is the run-time granule of the engine's delta-free
// scans, serial or parallel — workers pull group numbers from a shared
// queue and reposition.
func (t *Table) NewMorselScanner(cols []int, vecSize int, filters ...RangeFilter) (*Scanner, error) {
	// No clustered-window narrowing here: the morsel *source* computes the
	// window once, offers only its groups as morsels, and accounts the
	// pruned groups once — per-worker narrowing would multiply-count them.
	s, err := t.newScanner(cols, vecSize, filters...)
	if err != nil {
		return nil, err
	}
	s.limit = 0
	s.total = 0
	return s, nil
}

// NumGroups reports the number of row groups in the scanner's snapshot —
// the morsels SeekGroup accepts.
func (s *Scanner) NumGroups() int { return s.nGroups }

// SeekGroup repositions the scanner to serve exactly row group g (it must
// be < NumGroups); subsequent Next calls drain that group and report done.
// Each seek adds one group to the TotalGroups denominator, so per-worker
// skip accounting stays exact under morsel dispatch.
func (s *Scanner) SeekGroup(g int) {
	g += s.seekBase
	if s.prefix == nil {
		s.prefix = make([]int64, s.nGroups+1)
		for i := 0; i < s.nGroups; i++ {
			s.prefix[i+1] = s.prefix[i] + int64(s.groupRows(i))
		}
	}
	s.group = g
	s.limit = g + 1
	s.offset = 0
	s.loaded = false
	s.havePending = false
	s.rowBase = s.prefix[g]
	s.total++
}

// SetSeekBase offsets every subsequent SeekGroup by base. Morsel sources
// that prune to a clustered group window hand workers morsel numbers
// [0, window); the base maps them back onto absolute row groups.
func (s *Scanner) SetSeekBase(base int) { s.seekBase = base }

// SetBlockSource routes group reads through src (a buffer-manager pool or a
// cooperative scan). ctx bounds the fetches the scanner issues itself.
func (s *Scanner) SetBlockSource(ctx context.Context, src BlockSource) {
	s.src = src
	s.srcCtx = ctx
}

// SeekGroupData repositions to group g with its payload already in hand —
// the cooperative path, where the ABM decides which group arrives next and
// hands the scanner its bytes directly.
func (s *Scanner) SeekGroupData(g int, payload []byte) error {
	s.SeekGroup(g)
	return s.setPending(payload)
}

// setPending splits a group frame into the scanner's per-column payloads.
func (s *Scanner) setPending(frame []byte) error {
	cols, err := splitFrame(s.pending, frame, len(s.blocks))
	if err != nil {
		return err
	}
	s.pending, s.havePending = cols, true
	return nil
}

// NewScanner creates a scanner over the given column indexes with batches
// of vecSize rows: the full in-order scan of the table (the PDT-merge path,
// checkpoints). Range-filtered scans go through morsel scanners, whose
// source narrows to the clustered window once.
func (t *Table) NewScanner(cols []int, vecSize int) (*Scanner, error) {
	return t.newScanner(cols, vecSize)
}

func (t *Table) newScanner(cols []int, vecSize int, filters ...RangeFilter) (*Scanner, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, c := range cols {
		if c < 0 || c >= len(t.cols) {
			return nil, fmt.Errorf("colstore: column %d out of range", c)
		}
	}
	for _, f := range filters {
		if f.Col < 0 || f.Col >= len(t.cols) {
			return nil, fmt.Errorf("colstore: filter column %d out of range", f.Col)
		}
	}
	if vecSize <= 0 {
		vecSize = vec.DefaultSize
	}
	s := &Scanner{t: t, cols: cols, vecSize: vecSize, filters: filters,
		code: codeFilters(t, cols, filters), coded: make([]*codeFilter, len(cols))}
	s.blocks = make([][]Block, len(t.cols))
	for i := range t.cols {
		s.blocks[i] = t.cols[i].Blocks
	}
	if len(t.cols) > 0 {
		s.nGroups = len(t.cols[0].Blocks)
	}
	s.limit = s.nGroups
	s.total = s.nGroups
	s.decoded = make([]*vec.Vector, len(cols))
	for i, c := range cols {
		s.decoded[i] = vec.New(t.cols[c].Type.Kind, BlockRows)
	}
	return s, nil
}

// groupBytes is the encoded size of group g's projected columns — the
// physical bytes a skip avoids decoding.
func (s *Scanner) groupBytes(g int) int64 {
	var n int64
	for _, c := range s.cols {
		n += int64(len(s.blocks[c][g].Data))
	}
	return n
}

// Kinds returns the vector kinds the scanner produces, in projection order.
func (s *Scanner) Kinds() []types.Kind {
	out := make([]types.Kind, len(s.cols))
	for i, c := range s.cols {
		out[i] = s.t.cols[c].Type.Kind
	}
	return out
}

// SkippedGroups reports how many row groups block skipping pruned so far.
func (s *Scanner) SkippedGroups() int { return s.skipped }

// SkippedBytes reports the encoded bytes of the projected columns in the
// pruned groups — the physical I/O and decompression skipping saved.
func (s *Scanner) SkippedBytes() int64 { return s.skipBytes }

// DecodedBytes reports the encoded bytes of the projected columns in the
// groups this scanner decoded — what the scan actually paid for.
func (s *Scanner) DecodedBytes() int64 { return s.decBytes }

// TotalGroups reports how many row groups this scanner's partition covers,
// skipped or not — the denominator of the "skipped=N/M groups" profile line.
func (s *Scanner) TotalGroups() int { return s.total }

// CodeDroppedRows reports how many rows of the groups this scanner decoded
// its code filters dropped — rows whose strings were never gathered.
func (s *Scanner) CodeDroppedRows() int64 { return s.dropped }

// Next fills b with up to vecSize rows and returns the global position
// (SID) of the first row, or done=true at end of table. n is the batch's
// row count. When code filters drop rows, b.Sel lists the rows that remain,
// row p of the batch sitting at position start+p; a vector whose rows are
// all dropped is never returned. The batch's vectors and selection are owned
// by the scanner and valid until the next call.
func (s *Scanner) Next(b *vec.Batch) (start int64, n int, done bool, err error) {
	for {
		if s.group >= s.limit {
			return 0, 0, true, nil
		}
		gRows := s.groupRows(s.group)
		if s.offset == 0 && !s.loaded {
			skip, err := s.loadGroup(gRows)
			if err != nil {
				return 0, 0, false, err
			}
			if skip {
				bytes := s.groupBytes(s.group)
				s.skipped++
				s.skipBytes += bytes
				mGroupsSkipped.Inc()
				mBytesSkipped.Add(bytes)
				s.endGroup(gRows)
				continue
			}
		}
		n = min(s.vecSize, gRows-s.offset)
		start = s.rowBase + int64(s.offset)
		sel, kept := s.selectCodes(n)
		if kept {
			// Slice decoded vectors into the caller's batch without copying.
			for i := range s.cols {
				sliceInto(b.Vecs[i], s.decoded[i], s.offset, n)
			}
			b.Sel = sel
			b.SetLen(n)
		}
		s.offset += n
		if s.offset >= gRows {
			s.endGroup(gRows)
		}
		if kept {
			return start, b.Rows(), false, nil
		}
	}
}

// endGroup moves the scanner past the current group.
func (s *Scanner) endGroup(gRows int) {
	s.group++
	s.offset = 0
	s.loaded = false
	s.havePending = false
	s.rowBase += int64(gRows)
}

// loadGroup readies the current group for slicing: it fetches the group's
// bytes, opens the dictionaries of the code-filtered columns, unpacks their
// codes and decodes every other column. skip reports a group that holds no
// row in some filter's range, by its min/max summaries or by a dictionary
// without a value in the range; then nothing is unpacked or decoded.
func (s *Scanner) loadGroup(gRows int) (skip bool, err error) {
	if s.skipGroup(s.group) {
		return true, nil
	}
	if s.src != nil && !s.havePending && len(s.cols) > 0 {
		frame, err := s.src.FetchGroup(s.srcCtx, s.group)
		if err != nil {
			return false, err
		}
		if err := s.setPending(frame); err != nil {
			return false, err
		}
	}
	clear(s.coded)
	for k := range s.code {
		cf := &s.code[k]
		data := s.blockData(s.cols[cf.proj])
		if len(data) == 0 || compress.Codec(data[0]) != compress.PDict {
			continue
		}
		blk, rest, err := cf.dec.OpenPDict(data, gRows)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%w: %d bytes after the block", compress.ErrCorrupt, len(rest))
		}
		if err != nil {
			return false, err
		}
		cf.blk = blk
		cf.from, cf.to = blk.CodeRange(cf.lo, cf.hi)
		if cf.from >= cf.to {
			return true, nil
		}
		cf.all = cf.from == 0 && int(cf.to) == len(blk.Dict)
		s.coded[cf.proj] = cf
	}
	var decoded int64
	for i, c := range s.cols {
		data := s.blockData(c)
		dst := s.decoded[i]
		if cf := s.coded[i]; cf != nil {
			// Strings are gathered per vector, for the rows the codes pass.
			cf.codes = slices.Grow(cf.codes[:0], gRows)[:gRows]
			if err := cf.blk.Codes(cf.codes, 0); err != nil {
				return false, err
			}
			dst.Grow(gRows)
			dst.SetLen(gRows)
		} else if err := decodeBlock(s.t.cols[c].Type.Kind, data, gRows, dst, &s.strs); err != nil {
			return false, err
		}
		decoded += int64(len(data))
	}
	s.decBytes += decoded
	mGroupsScanned.Inc()
	mBytesDecoded.Add(decoded)
	mRowsScanned.Add(int64(gRows))
	s.loaded = true
	return false, nil
}

// blockData returns the current group's bytes of table column c: the
// snapshot's own, or the buffer manager's. The snapshot supplies the row
// count either way.
func (s *Scanner) blockData(c int) []byte {
	if s.havePending {
		return s.pending[c]
	}
	return s.blocks[c][s.group].Data
}

// selectCodes runs the current group's code filters over the next n rows.
// It returns the rows that pass (nil: all n) and whether any did, and
// gathers the strings of the code-filtered columns at exactly those rows.
func (s *Scanner) selectCodes(n int) (sel []int32, kept bool) {
	filtered := false
	for _, cf := range s.coded {
		if cf == nil || cf.all {
			continue
		}
		codes := cf.codes[s.offset : s.offset+n]
		if !filtered {
			sel = primitives.SelBetweenVCC(s.sel, codes, cf.from, cf.to-1, nil, n)
			filtered = true
		} else {
			sel = primitives.SelBetweenVCC(sel, codes, cf.from, cf.to-1, sel, n)
		}
		if len(sel) == 0 {
			break
		}
	}
	if filtered {
		s.sel = sel
		if dropped := int64(n - len(sel)); dropped > 0 {
			s.dropped += dropped
			mRowsCodeDrop.Add(dropped)
		}
		if len(sel) == 0 {
			return nil, false
		}
		if len(sel) == n {
			sel = nil
		}
	}
	for i, cf := range s.coded {
		if cf != nil {
			cf.blk.Gather(s.decoded[i].Str[s.offset:s.offset+n], cf.codes[s.offset:s.offset+n], sel)
		}
	}
	return sel, true
}

func (s *Scanner) groupRows(g int) int {
	if len(s.cols) > 0 {
		return s.blocks[s.cols[0]][g].Rows
	}
	if len(s.blocks) > 0 {
		return s.blocks[0][g].Rows
	}
	return 0
}

// skipGroup applies the range filters to the group's min/max summaries.
func (s *Scanner) skipGroup(g int) bool {
	for _, f := range s.filters {
		blk := &s.blocks[f.Col][g]
		if f.Lo != nil && types.Compare(blk.Max, *f.Lo) < 0 {
			return true
		}
		if f.Hi != nil && types.Compare(blk.Min, *f.Hi) > 0 {
			return true
		}
	}
	return false
}

// sliceInto points dst at a window of src's storage (zero-copy).
func sliceInto(dst, src *vec.Vector, off, n int) {
	dst.Kind = src.Kind
	switch src.Kind {
	case types.KindBool:
		dst.Bool = src.Bool[off : off+n]
	case types.KindInt32, types.KindDate:
		dst.I32 = src.I32[off : off+n]
	case types.KindInt64:
		dst.I64 = src.I64[off : off+n]
	case types.KindFloat64:
		dst.F64 = src.F64[off : off+n]
	case types.KindString:
		dst.Str = src.Str[off : off+n]
	}
	dst.SetLen(n)
}
