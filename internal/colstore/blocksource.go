package colstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// BlockSource supplies the raw compressed bytes of one row group — all
// columns, as the group's frame. It is the seam between the scanner and the
// buffer manager: a Scanner given a BlockSource pulls group payloads through
// it (an LRU pool, or a cooperative ABM shared with sibling scans) instead
// of reading the table's block list directly.
type BlockSource interface {
	FetchGroup(ctx context.Context, g int) ([]byte, error)
}

// A row group is stored as its frame: for each column in table order, a
// uvarint length followed by the block's compressed bytes. The frame is laid
// out once, when the group is flushed or loaded; every Block.Data of the
// group is a view into it, and it is the chunk the buffer manager carries.
// Only the data travels — block metadata (row count, min/max; the codec kind
// is embedded in the data) stays in the scanner's snapshot, so a frame plus
// the snapshot is enough to decode.

// appendFrame lays out the frame of the next unframed row group — whose
// blocks every column already holds — and re-points each block's Data at its
// section of the frame. The caller holds t.mu.
func (t *Table) appendFrame() {
	g := len(t.frames)
	size := 0
	for c := range t.cols {
		n := len(t.cols[c].Blocks[g].Data)
		size += uvarintLen(uint64(n)) + n
	}
	frame := make([]byte, 0, size)
	for c := range t.cols {
		b := &t.cols[c].Blocks[g]
		frame = binary.AppendUvarint(frame, uint64(len(b.Data)))
		frame = append(frame, b.Data...)
		b.Data = frame[len(frame)-len(b.Data) : len(frame) : len(frame)]
	}
	t.frames = append(t.frames, frame)
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// EncodeGroup returns the frame of row group g. The result is the table's
// own storage, shared with every scanner and buffer pool that holds it: it
// is immutable and must not be written.
func (t *Table) EncodeGroup(g int) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if g < 0 || g >= len(t.frames) {
		return nil, fmt.Errorf("colstore: row group %d out of range", g)
	}
	return t.frames[g], nil
}

// DecodeGroupPayloads splits a frame back into per-column compressed
// blocks. The returned slices alias data (zero-copy).
func DecodeGroupPayloads(data []byte, ncols int) ([][]byte, error) {
	return splitFrame(nil, data, ncols)
}

// splitFrame is DecodeGroupPayloads into a reusable destination.
func splitFrame(dst [][]byte, data []byte, ncols int) ([][]byte, error) {
	dst = slices.Grow(dst[:0], ncols)[:ncols]
	for c := range dst {
		n, w := binary.Uvarint(data)
		if w <= 0 || uint64(len(data)-w) < n {
			return nil, fmt.Errorf("colstore: truncated group payload at column %d", c)
		}
		dst[c] = data[w : w+int(n)]
		data = data[w+int(n):]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("colstore: %d trailing bytes in group payload", len(data))
	}
	return dst, nil
}
