package colstore

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"vectorwise/internal/fsim"
)

// saveToMem persists tab into a MemFS and returns the durable bytes.
func saveToMem(t *testing.T, tab *Table) (*fsim.MemFS, []byte) {
	t.Helper()
	fs := fsim.NewMemFS()
	if err := tab.SaveFS(fs, "t.vwt"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("t.vwt")
	if err != nil {
		t.Fatal(err)
	}
	return fs, data
}

func TestSaveLoadMemFS(t *testing.T) {
	tab := fillTable(t, BlockRows+100)
	fs, data := saveToMem(t, tab)
	if string(data[:4]) != "VWT3" {
		t.Fatalf("magic %q", data[:4])
	}
	// Save goes through tmp+rename with a sync in between, so a crash right
	// after Save loses nothing.
	fs.Crash()
	got, err := LoadFS(fs, "t.vwt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != tab.Rows() {
		t.Fatalf("rows %d != %d", got.Rows(), tab.Rows())
	}
	acc, _, _ := scanAll(t, got, []int{0, 3}, 1024)
	if acc.Full() != int(tab.Rows()) || acc.Vecs[1].Str[1] != "RAIL" {
		t.Fatal("loaded content")
	}
}

// Truncation anywhere inside the file is reported as ErrCorrupt with the
// offset and the section being decoded — never a bare io.EOF, never a panic.
func TestLoadTruncatedIsCorrupt(t *testing.T) {
	tab := fillTable(t, BlockRows+100)
	_, data := saveToMem(t, tab)
	// Sample a spread of cut points (every byte is too slow at this size).
	cuts := []int{0, 1, 3, 4, 5, 10, 20, 40, 60, 100, len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 1}
	for _, cut := range cuts {
		fs := fsim.NewMemFS()
		fs.SetDurable("t.vwt", data[:cut])
		_, err := LoadFS(fs, "t.vwt")
		if err == nil {
			t.Fatalf("cut %d: truncated file loaded", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: not ErrCorrupt: %v", cut, err)
		}
		msg := err.Error()
		if cut >= 4 && !strings.Contains(msg, "offset") {
			t.Fatalf("cut %d: no offset in %q", cut, msg)
		}
	}
}

// A flipped bit in any row group's section fails the load with an error
// naming that exact column and group.
func TestLoadBitFlipNamesColumnAndGroup(t *testing.T) {
	tab := fillTable(t, BlockRows*2) // two full groups per column
	_, data := saveToMem(t, tab)

	// Walk the file once to learn where each (column, group) section starts.
	type span struct {
		col        string
		group      int
		start, end int64
	}
	fs := fsim.NewMemFS()
	fs.SetDurable("t.vwt", data)
	clean, err := LoadFS(fs, "t.vwt")
	if err != nil {
		t.Fatal(err)
	}
	// Rather than re-parse offsets, flip one byte inside each group's Data
	// payload: locate it with a search for the block's encoded bytes.
	var spans []span
	searchFrom := 0
	for ci, col := range clean.cols {
		name := clean.schema.Cols[ci].Name
		for gi := range col.Blocks {
			blk := &col.Blocks[gi]
			idx := indexFrom(data, blk.Data, searchFrom)
			if idx < 0 {
				t.Fatalf("column %q group %d data not found in file", name, gi)
			}
			spans = append(spans, span{col: name, group: gi, start: int64(idx), end: int64(idx + len(blk.Data))})
			searchFrom = idx + len(blk.Data)
		}
	}

	for _, sp := range spans {
		off := sp.start + (sp.end-sp.start)/2
		cfs := fsim.NewMemFS()
		cfs.SetDurable("t.vwt", data)
		if err := cfs.FlipBit("t.vwt", off); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFS(cfs, "t.vwt")
		if err == nil {
			t.Fatalf("column %q group %d: bit flip at %d not detected", sp.col, sp.group, off)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("column %q group %d: not ErrCorrupt: %v", sp.col, sp.group, err)
		}
		msg := err.Error()
		wantCol := `column "` + sp.col + `"`
		wantGrp := "group " + strconv.Itoa(sp.group)
		if !strings.Contains(msg, wantCol) || !strings.Contains(msg, wantGrp) {
			t.Fatalf("column %q group %d: error does not name the group: %q", sp.col, sp.group, msg)
		}
	}
}

// Flipping a checksum byte itself (the 4 bytes after a group's data) is
// also caught as a mismatch for that group.
func TestLoadFlippedChecksumByte(t *testing.T) {
	tab := fillTable(t, 100)
	_, data := saveToMem(t, tab)
	firstData := tab.cols[0].Blocks[0].Data
	idx := indexFrom(data, firstData, 0)
	if idx < 0 {
		t.Fatal("block data not found")
	}
	fs := fsim.NewMemFS()
	fs.SetDurable("t.vwt", data)
	if err := fs.FlipBit("t.vwt", int64(idx+len(firstData))); err != nil { // first CRC byte
		t.Fatal(err)
	}
	_, err := LoadFS(fs, "t.vwt")
	if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped CRC byte: %v", err)
	}
}

// The checksum-less VWT2 format is no longer read: a file carrying its
// magic is rejected as corrupt instead of loading unverified.
func TestLoadLegacyVWT2(t *testing.T) {
	_, img := saveToMem(t, fillTable(t, 500))
	copy(img, "VWT2")
	fs := fsim.NewMemFS()
	fs.SetDurable("legacy.vwt", img)
	_, err := LoadFS(fs, "legacy.vwt")
	if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("VWT2 image: %v, want ErrCorrupt (bad magic)", err)
	}
}

func TestLoadBadMagic(t *testing.T) {
	fs := fsim.NewMemFS()
	fs.SetDurable("x.vwt", []byte("NOPE-and-some-trailing-data"))
	_, err := LoadFS(fs, "x.vwt")
	if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic: %v", err)
	}
}

// indexFrom is bytes.Index constrained to start at from, so repeated block
// payloads (identical data across groups) resolve to distinct offsets.
func indexFrom(haystack, needle []byte, from int) int {
	if from > len(haystack) {
		return -1
	}
	i := bytes.Index(haystack[from:], needle)
	if i < 0 {
		return -1
	}
	return from + i
}
