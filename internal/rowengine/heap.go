// Package rowengine is the "classic Ingres" substrate of Figure 1: slotted-
// page heap storage with tuple-at-a-time Volcano operators. It exists for
// two reasons mirroring the paper:
//
//   - it is the conventional engine the X100 kernel's >10× claim (C1,
//     experiment E1) is measured against, and
//   - Vectorwise shipped with *both* storage engines — classic tables for
//     OLTP-style access, Vectorwise tables for OLAP (C5) —
//     so the engine layer here offers the same choice.
package rowengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"vectorwise/internal/types"
)

// PageSize is the classic 8KB heap page.
const PageSize = 8192

// RowID addresses a row: page number and slot within it.
type RowID struct {
	Page int32
	Slot int32
}

// Pack packs the RowID into one BIGINT, the $rid a scan of the heap emits.
func (r RowID) Pack() int64 { return int64(r.Page)<<32 | int64(uint32(r.Slot)) }

// UnpackRowID is the inverse of RowID.Pack.
func UnpackRowID(v int64) RowID { return RowID{Page: int32(v >> 32), Slot: int32(uint32(v))} }

// page is a slotted page: rows grow from the front of data, the slot
// directory holds (offset, length) pairs; length 0 marks a deleted slot.
type page struct {
	data  []byte
	slots []slot
	free  int // next write offset in data
}

type slot struct {
	off, length int32
}

func newPage() *page {
	return &page{data: make([]byte, 0, PageSize)}
}

// fits reports whether n more bytes (plus a slot) fit.
func (p *page) fits(n int) bool {
	const slotCost = 8
	return len(p.data)+n+(len(p.slots)+1)*slotCost <= PageSize
}

func (p *page) insert(enc []byte) int32 {
	off := int32(len(p.data))
	p.data = append(p.data, enc...)
	p.slots = append(p.slots, slot{off: off, length: int32(len(enc))})
	return int32(len(p.slots) - 1)
}

// HeapTable is a row-store table with an optional unique hash index on one
// integer column (the "primary index" used for point lookups).
type HeapTable struct {
	mu     sync.RWMutex
	schema *types.Schema
	pages  []*page
	rows   int64
	keyCol int // -1 = no index
	index  map[int64]RowID
}

// NewHeapTable creates a heap table; keyCol ≥ 0 builds a unique hash index
// on that integer column.
func NewHeapTable(schema *types.Schema, keyCol int) *HeapTable {
	t := &HeapTable{schema: schema.Clone(), keyCol: keyCol}
	if keyCol >= 0 {
		t.index = make(map[int64]RowID)
	}
	return t
}

// Schema returns the table schema.
func (t *HeapTable) Schema() *types.Schema { return t.schema }

// Rows returns the live row count.
func (t *HeapTable) Rows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Insert appends a row and returns its RowID.
func (t *HeapTable) Insert(row []types.Value) (RowID, error) {
	enc, err := t.encode(row)
	if err != nil {
		return RowID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.index != nil {
		k := row[t.keyCol].AsInt()
		if _, dup := t.index[k]; dup {
			return RowID{}, fmt.Errorf("rowengine: duplicate key %d", k)
		}
	}
	rid := t.appendLocked(enc)
	if t.index != nil {
		t.index[row[t.keyCol].AsInt()] = rid
	}
	return rid, nil
}

// encode checks a row's arity and encoded size and returns its encoding.
func (t *HeapTable) encode(row []types.Value) ([]byte, error) {
	if len(row) != t.schema.Len() {
		return nil, fmt.Errorf("rowengine: row arity %d, want %d", len(row), t.schema.Len())
	}
	enc := encodeRow(nil, row)
	if len(enc)+16 > PageSize {
		return nil, fmt.Errorf("rowengine: row of %d bytes exceeds page size", len(enc))
	}
	return enc, nil
}

// appendLocked stores an encoded row in the last page, or in a new one when
// it does not fit there, and counts it.
func (t *HeapTable) appendLocked(enc []byte) RowID {
	var p *page
	if n := len(t.pages); n > 0 && t.pages[n-1].fits(len(enc)) {
		p = t.pages[n-1]
	} else {
		p = newPage()
		t.pages = append(t.pages, p)
	}
	slotIdx := p.insert(enc)
	t.rows++
	return RowID{Page: int32(len(t.pages) - 1), Slot: slotIdx}
}

func (t *HeapTable) getLocked(rid RowID) ([]types.Value, error) {
	if int(rid.Page) >= len(t.pages) {
		return nil, fmt.Errorf("rowengine: page %d out of range", rid.Page)
	}
	p := t.pages[rid.Page]
	if int(rid.Slot) >= len(p.slots) {
		return nil, fmt.Errorf("rowengine: slot %d out of range", rid.Slot)
	}
	s := p.slots[rid.Slot]
	if s.length == 0 {
		return nil, nil
	}
	row, err := decodeRow(t.schema, p.data[s.off:s.off+s.length])
	if err != nil {
		return nil, err
	}
	return row, nil
}

// Delete removes the row at rid.
func (t *HeapTable) Delete(rid RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, err := t.getLocked(rid)
	if err != nil {
		return err
	}
	if row == nil {
		return nil // already deleted
	}
	t.pages[rid.Page].slots[rid.Slot].length = 0
	if t.index != nil {
		delete(t.index, row[t.keyCol].AsInt())
	}
	t.rows--
	return nil
}

// UpdateRows replaces the row at each rids[i] by rows[i], all of them or
// none. Under one write lock it first checks everything that can fail — every
// rid is live and listed once, every new row has the table's arity and fits a
// page, and the
// new keys are unique, against each other and against the index with the
// rewritten rows' old keys taken out — and only then changes anything. A row
// that fits its slot is rewritten in place; one that grew moves to the end of
// the heap under a new RowID.
func (t *HeapTable) UpdateRows(rids []RowID, rows [][]types.Value) error {
	if len(rids) != len(rows) {
		return fmt.Errorf("rowengine: %d row ids for %d rows", len(rids), len(rows))
	}
	encs := make([][]byte, len(rows))
	for i, row := range rows {
		enc, err := t.encode(row)
		if err != nil {
			return err
		}
		encs[i] = enc
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rewritten := make(map[RowID]bool, len(rids))
	var oldKeys []int64
	for _, rid := range rids {
		old, err := t.getLocked(rid)
		if err != nil {
			return err
		}
		if old == nil {
			return fmt.Errorf("rowengine: update of deleted row")
		}
		if rewritten[rid] {
			return fmt.Errorf("rowengine: row %v updated twice", rid)
		}
		rewritten[rid] = true
		if t.index != nil {
			oldKeys = append(oldKeys, old[t.keyCol].AsInt())
		}
	}
	if t.index != nil {
		newKeys := make(map[int64]bool, len(rows))
		for _, row := range rows {
			k := row[t.keyCol].AsInt()
			if owner, taken := t.index[k]; newKeys[k] || taken && !rewritten[owner] {
				return fmt.Errorf("rowengine: duplicate key %d", k)
			}
			newKeys[k] = true
		}
		for _, k := range oldKeys {
			delete(t.index, k)
		}
	}
	for i, rid := range rids {
		p := t.pages[rid.Page]
		s := &p.slots[rid.Slot]
		if int32(len(encs[i])) <= s.length {
			copy(p.data[s.off:], encs[i])
			s.length = int32(len(encs[i]))
		} else {
			s.length = 0
			t.rows--
			rid = t.appendLocked(encs[i])
		}
		if t.index != nil {
			t.index[rows[i][t.keyCol].AsInt()] = rid
		}
	}
	return nil
}

// ScanFunc iterates all live rows in heap order; return false to stop.
func (t *HeapTable) ScanFunc(f func(rid RowID, row []types.Value) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for pi, p := range t.pages {
		for si, s := range p.slots {
			if s.length == 0 {
				continue
			}
			row, err := decodeRow(t.schema, p.data[s.off:s.off+s.length])
			if err != nil {
				return err
			}
			if !f(RowID{Page: int32(pi), Slot: int32(si)}, row) {
				return nil
			}
		}
	}
	return nil
}

// Row encoding: per value, a tag byte (kind | null bit) and a fixed or
// length-prefixed payload.

const nullBit = 0x80

func encodeRow(dst []byte, row []types.Value) []byte {
	for _, v := range row {
		tag := byte(v.Kind)
		if v.Null {
			tag |= nullBit
		}
		dst = append(dst, tag)
		if v.Null {
			continue
		}
		switch v.Kind {
		case types.KindBool:
			if v.I64 != 0 {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case types.KindInt32, types.KindDate:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(v.I64)))
		case types.KindInt64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I64))
		case types.KindFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F64))
		case types.KindString:
			var lenBuf [binary.MaxVarintLen64]byte
			n := binary.PutUvarint(lenBuf[:], uint64(len(v.Str)))
			dst = append(dst, lenBuf[:n]...)
			dst = append(dst, v.Str...)
		}
	}
	return dst
}

func decodeRow(schema *types.Schema, src []byte) ([]types.Value, error) {
	row := make([]types.Value, schema.Len())
	for i := range row {
		if len(src) < 1 {
			return nil, fmt.Errorf("rowengine: truncated row")
		}
		tag := src[0]
		src = src[1:]
		kind := types.Kind(tag &^ nullBit)
		if tag&nullBit != 0 {
			row[i] = types.NewNull(kind)
			continue
		}
		switch kind {
		case types.KindBool:
			if len(src) < 1 {
				return nil, fmt.Errorf("rowengine: truncated bool")
			}
			row[i] = types.NewBool(src[0] != 0)
			src = src[1:]
		case types.KindInt32, types.KindDate:
			if len(src) < 4 {
				return nil, fmt.Errorf("rowengine: truncated int32")
			}
			u := binary.LittleEndian.Uint32(src)
			if kind == types.KindDate {
				row[i] = types.NewDate(int32(u))
			} else {
				row[i] = types.NewInt32(int32(u))
			}
			src = src[4:]
		case types.KindInt64:
			if len(src) < 8 {
				return nil, fmt.Errorf("rowengine: truncated int64")
			}
			row[i] = types.NewInt64(int64(binary.LittleEndian.Uint64(src)))
			src = src[8:]
		case types.KindFloat64:
			if len(src) < 8 {
				return nil, fmt.Errorf("rowengine: truncated float")
			}
			row[i] = types.NewFloat64(math.Float64frombits(binary.LittleEndian.Uint64(src)))
			src = src[8:]
		case types.KindString:
			l, n := binary.Uvarint(src)
			if n <= 0 || len(src) < n+int(l) {
				return nil, fmt.Errorf("rowengine: truncated string")
			}
			row[i] = types.NewString(string(src[n : n+int(l)]))
			src = src[n+int(l):]
		default:
			return nil, fmt.Errorf("rowengine: bad kind tag %d", kind)
		}
	}
	return row, nil
}
