package colstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"vectorwise/internal/compress"
	"vectorwise/internal/fsim"
	"vectorwise/internal/metrics"
	"vectorwise/internal/types"
)

// On-disk format (one file per table):
//
//	magic "VWT3"
//	uvarint ncols | per column: name, kind byte, nullable byte
//	per column: clustered byte
//	uvarint rows
//	per column: uvarint nblocks | per block:
//	    uvarint rows, codec byte, min value, max value,
//	    uvarint len(data), data bytes,
//	    u32le CRC32C over the block section above
//
// Values are encoded as kind byte + kind-specific payload. The format is
// self-contained and versioned by the magic string; a file with any other
// magic is rejected as corrupt.
//
// The CRC covers each (column, row-group) section independently, so a bit
// flip is pinned to an exact column and group at open time instead of
// surfacing as a garbled scan result later.

var magic = []byte("VWT3")

// ErrCorrupt tags load failures caused by the file's *content* — truncated
// mid-structure, failed checksum, nonsense values — as opposed to I/O
// errors from the environment. Callers branch on it with errors.Is to
// decide between "quarantine the table" and "retry the read".
var ErrCorrupt = errors.New("colstore: corrupt table file")

var mChecksumFailures = metrics.Default.Counter("colstore_checksum_failures_total")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the table to path atomically (temp file + rename) on the
// real file system.
func (t *Table) Save(path string) error { return t.SaveFS(fsim.OS, path) }

// SaveFS writes the table to path atomically through an fsim seam: temp
// file, fsync, rename. The rename publishes the new file only after its
// bytes are durable.
func (t *Table) SaveFS(fs fsim.FS, path string) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	cleanup := func() {
		f.Close()
		fs.Remove(tmp)
	}
	if err := t.write(w); err != nil {
		cleanup()
		return err
	}
	if err := w.Flush(); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.Rename(tmp, path)
}

// crcWriter forwards to w, accumulating a CRC32C over everything written
// while armed. Write errors are sticky and surface at the next call.
type crcWriter struct {
	w     io.Writer
	crc   uint32
	armed bool
	err   error
}

func (c *crcWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	if c.armed {
		c.crc = crc32.Update(c.crc, castagnoli, p)
	}
	n, err := c.w.Write(p)
	c.err = err
	return n, err
}

func (c *crcWriter) arm() { c.armed, c.crc = true, 0 }
func (c *crcWriter) disarm() uint32 {
	c.armed = false
	return c.crc
}

func (t *Table) write(w io.Writer) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cw := &crcWriter{w: w}
	if _, err := cw.Write(magic); err != nil {
		return err
	}
	writeUvarint(cw, uint64(len(t.schema.Cols)))
	for _, c := range t.schema.Cols {
		writeString(cw, c.Name)
		writeByte(cw, byte(c.Type.Kind))
		nb := byte(0)
		if c.Type.Nullable {
			nb = 1
		}
		writeByte(cw, nb)
	}
	for _, cl := range t.clustered {
		cb := byte(0)
		if cl {
			cb = 1
		}
		writeByte(cw, cb)
	}
	writeUvarint(cw, uint64(t.rows))
	var crcBuf [4]byte
	for i := range t.cols {
		col := &t.cols[i]
		writeUvarint(cw, uint64(len(col.Blocks)))
		for j := range col.Blocks {
			blk := &col.Blocks[j]
			cw.arm()
			writeUvarint(cw, uint64(blk.Rows))
			writeByte(cw, byte(blk.Codec))
			writeValue(cw, blk.Min)
			writeValue(cw, blk.Max)
			writeUvarint(cw, uint64(len(blk.Data)))
			cw.Write(blk.Data)
			sum := cw.disarm()
			binary.LittleEndian.PutUint32(crcBuf[:], sum)
			if _, err := cw.Write(crcBuf[:]); err != nil {
				return err
			}
		}
	}
	return cw.err
}

// fileReader wraps a buffered reader with a consumed-byte offset (for
// corruption diagnostics) and an optional running CRC32C.
type fileReader struct {
	br    *bufio.Reader
	off   int64
	crc   uint32
	armed bool
}

func (r *fileReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, err
	}
	r.off++
	if r.armed {
		r.crc = crc32.Update(r.crc, castagnoli, []byte{b})
	}
	return b, nil
}

func (r *fileReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.off += int64(n)
	if r.armed && n > 0 {
		r.crc = crc32.Update(r.crc, castagnoli, p[:n])
	}
	return n, err
}

func (r *fileReader) arm() { r.armed, r.crc = true, 0 }
func (r *fileReader) disarm() uint32 {
	r.armed = false
	return r.crc
}

// corruptAt wraps a structural failure with the file, offset and section
// being decoded. Plain EOF mid-structure is corruption too (a short file).
func corruptAt(path string, off int64, section string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %s: offset %d: reading %s: %v", ErrCorrupt, path, off, section, err)
}

// Load reads a table file written by Save from the real file system.
func Load(path string) (*Table, error) { return LoadFS(fsim.OS, path) }

// LoadFS reads a table file through an fsim seam, verifying the per-group
// checksums. Structural failures (truncation, checksum
// mismatch, invalid fields) are reported as ErrCorrupt with the file
// offset and the section being decoded; a checksum failure names the exact
// column and row group.
func LoadFS(fs fsim.FS, path string) (*Table, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &fileReader{br: bufio.NewReaderSize(f, 1<<20)}
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, corruptAt(path, 0, "magic", err)
	}
	if string(m[:]) != string(magic) {
		return nil, fmt.Errorf("%w: %s: bad magic %q", ErrCorrupt, path, m[:])
	}
	ncols, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, corruptAt(path, r.off, "column count", err)
	}
	schema := &types.Schema{}
	for i := uint64(0); i < ncols; i++ {
		section := fmt.Sprintf("schema column %d", i)
		name, err := readString(r)
		if err != nil {
			return nil, corruptAt(path, r.off, section+" name", err)
		}
		kb, err := r.ReadByte()
		if err != nil {
			return nil, corruptAt(path, r.off, section+" kind", err)
		}
		nb, err := r.ReadByte()
		if err != nil {
			return nil, corruptAt(path, r.off, section+" nullable", err)
		}
		tt := types.T{Kind: types.Kind(kb), Nullable: nb != 0}
		if !tt.Kind.Valid() {
			return nil, fmt.Errorf("%w: %s: offset %d: invalid kind %d in %s",
				ErrCorrupt, path, r.off, kb, section)
		}
		schema.Cols = append(schema.Cols, types.Col(name, tt))
	}
	t := NewTable(schema)
	for i := range t.clustered {
		cb, err := r.ReadByte()
		if err != nil {
			return nil, corruptAt(path, r.off, "clustered markers", err)
		}
		t.clustered[i] = cb != 0
	}
	rows, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, corruptAt(path, r.off, "row count", err)
	}
	t.rows = int64(rows)
	for i := range t.cols {
		colName := schema.Cols[i].Name
		nblocks, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, corruptAt(path, r.off, fmt.Sprintf("column %q block count", colName), err)
		}
		for j := uint64(0); j < nblocks; j++ {
			section := fmt.Sprintf("column %q group %d", colName, j)
			r.arm()
			var blk Block
			br, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, corruptAt(path, r.off, section+" rows", err)
			}
			blk.Rows = int(br)
			cb, err := r.ReadByte()
			if err != nil {
				return nil, corruptAt(path, r.off, section+" codec", err)
			}
			blk.Codec = compress.Codec(cb)
			if blk.Min, err = readValue(r); err != nil {
				return nil, corruptAt(path, r.off, section+" min", err)
			}
			if blk.Max, err = readValue(r); err != nil {
				return nil, corruptAt(path, r.off, section+" max", err)
			}
			dl, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, corruptAt(path, r.off, section+" data length", err)
			}
			// A flipped bit in the length varint must not trigger a giant
			// allocation; no block encodes anywhere near this large.
			if dl > 1<<30 || br > 1<<30 {
				return nil, fmt.Errorf("%w: %s: offset %d: implausible %s (rows %d, data length %d)",
					ErrCorrupt, path, r.off, section, br, dl)
			}
			blk.Data = make([]byte, dl)
			if _, err := io.ReadFull(r, blk.Data); err != nil {
				return nil, corruptAt(path, r.off, section+" data", err)
			}
			computed := r.disarm()
			var sumBuf [4]byte
			if _, err := io.ReadFull(r, sumBuf[:]); err != nil {
				return nil, corruptAt(path, r.off, section+" checksum", err)
			}
			stored := binary.LittleEndian.Uint32(sumBuf[:])
			if stored != computed {
				mChecksumFailures.Inc()
				return nil, fmt.Errorf("%w: %s: column %q group %d: checksum mismatch (stored %08x, computed %08x)",
					ErrCorrupt, path, colName, j, stored, computed)
			}
			t.cols[i].Blocks = append(t.cols[i].Blocks, blk)
		}
	}
	// The file stores blocks column by column; memory holds them group by
	// group, each group's blocks inside its one frame.
	for i := range t.cols {
		if len(t.cols[i].Blocks) != len(t.cols[0].Blocks) {
			return nil, fmt.Errorf("%w: %s: column %q has %d row groups, column %q has %d",
				ErrCorrupt, path, schema.Cols[i].Name, len(t.cols[i].Blocks),
				schema.Cols[0].Name, len(t.cols[0].Blocks))
		}
	}
	for g := t.NumBlocks(); g > 0; g-- {
		t.appendFrame()
	}
	return t, nil
}

func writeByte(w io.Writer, b byte) { w.Write([]byte{b}) }

func writeUvarint(w io.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w io.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	io.WriteString(w, s)
}

func readString(r *fileReader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<30 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func writeValue(w io.Writer, v types.Value) {
	writeByte(w, byte(v.Kind))
	switch v.Kind {
	case types.KindString:
		writeString(w, v.Str)
	case types.KindFloat64:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F64))
		w.Write(buf[:])
	default:
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], v.I64)
		w.Write(buf[:n])
	}
}

func readValue(r *fileReader) (types.Value, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return types.Value{}, err
	}
	v := types.Value{Kind: types.Kind(kb)}
	switch v.Kind {
	case types.KindString:
		s, err := readString(r)
		if err != nil {
			return types.Value{}, err
		}
		v.Str = s
	case types.KindFloat64:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return types.Value{}, err
		}
		v.F64 = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	default:
		i, err := binary.ReadVarint(r)
		if err != nil {
			return types.Value{}, err
		}
		v.I64 = i
	}
	return v, nil
}
