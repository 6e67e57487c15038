package compress

import (
	"encoding/binary"
	"sort"
	"unsafe"
)

// Decoding. One typed kernel per codec writes into a destination the caller
// owns: the block's row count must equal len(dst), so the destination — not
// a number read from the block — bounds every write and nothing is
// allocated. DecodeInt64 and DecodeString are thin wrappers that size a
// destination from the header and run the same kernels.
//
// Blocks are untrusted bytes (a file may be corrupt or hostile): every
// length is compared as uint64 before it is converted, and a kernel returns
// ErrCorrupt rather than panic whatever src holds. After an error dst holds
// unspecified values.

// MaxBlockRows bounds the row count the allocating wrappers accept, so a
// forged header cannot ask for an arbitrary allocation (a width-0 block
// legitimately encodes any number of rows in a few bytes). The typed kernels
// need no such bound: len(dst) is one.
const MaxBlockRows = 1 << 20

// DecodeInts decodes the integer block at the head of src into dst,
// dispatching on its codec byte, and returns the unconsumed remainder of
// src. The block must hold exactly len(dst) values.
func DecodeInts[T Int](dst []T, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, ErrCorrupt
	}
	countDecode(Codec(src[0]), len(src))
	switch Codec(src[0]) {
	case None:
		return decodeNone(dst, src)
	case PFOR:
		return decodePFOR(dst, src)
	case PFORDelta:
		return decodePFORDelta(dst, src)
	case RLE:
		return decodeRLE(dst, src)
	default:
		return nil, ErrCorrupt
	}
}

// DecodeFloat64s decodes an integer block of IEEE 754 bit patterns into dst.
func DecodeFloat64s(dst []float64, src []byte) ([]byte, error) {
	return DecodeInts(unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst)), src)
}

// DecodeBools decodes an integer block of 0/1 values into dst. Any other
// value (judged by its low byte) is corruption: a bool must not hold it.
func DecodeBools(dst []bool, src []byte) ([]byte, error) {
	raw := unsafe.Slice((*int8)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst))
	rest, err := DecodeInts(raw, src)
	if err == nil {
		var seen int8
		for _, b := range raw {
			seen |= b
		}
		if seen&^1 != 0 {
			err = ErrCorrupt
		}
	}
	if err != nil {
		clear(raw)
		return nil, err
	}
	return rest, nil
}

// blockHeader checks the codec byte and reads the row count, which must be
// exactly want.
func blockHeader(src []byte, c Codec, want int) ([]byte, bool) {
	if len(src) == 0 || Codec(src[0]) != c {
		return nil, false
	}
	n, rest, ok := getUvarint(src[1:])
	return rest, ok && n == uint64(want)
}

func decodePFOR[T Int](dst []T, src []byte) ([]byte, error) {
	src, ok := blockHeader(src, PFOR, len(dst))
	if !ok {
		return nil, ErrCorrupt
	}
	n := len(dst)
	if n == 0 {
		return src, nil
	}
	baseU, src, ok := getUvarint(src)
	if !ok || len(src) < 1 {
		return nil, ErrCorrupt
	}
	w := uint(src[0])
	nExc, src, ok := getUvarint(src[1:])
	if !ok || w > 64 {
		return nil, ErrCorrupt
	}
	packed := packedLen(n, w)
	if len(src) < packed {
		return nil, ErrCorrupt
	}
	unpack(dst, src[:packed], w, uint64(unzigzag(baseU)))
	src = src[packed:]
	// Patch phase. Each exception consumes input, so a forged count ends in
	// a truncation error, not a long loop.
	pos := 0
	for ; nExc > 0; nExc-- {
		dp, rest, ok := getUvarint(src)
		if !ok {
			return nil, ErrCorrupt
		}
		v, rest, ok := getUvarint(rest)
		if !ok || dp >= uint64(n-pos) {
			return nil, ErrCorrupt
		}
		src = rest
		pos += int(dp)
		dst[pos] = T(unzigzag(v))
	}
	return src, nil
}

// decodePFORDelta decodes the deltas into dst[1:] and prefix-sums in place.
// The sum runs in T: wrapping addition commutes with narrowing.
func decodePFORDelta[T Int](dst []T, src []byte) ([]byte, error) {
	src, ok := blockHeader(src, PFORDelta, len(dst))
	if !ok {
		return nil, ErrCorrupt
	}
	if len(dst) == 0 {
		return src, nil
	}
	firstU, src, ok := getUvarint(src)
	if !ok {
		return nil, ErrCorrupt
	}
	src, err := decodePFOR(dst[1:], src)
	if err != nil {
		return nil, err
	}
	acc := T(unzigzag(firstU))
	dst[0] = acc
	for i, d := range dst[1:] {
		acc += d
		dst[i+1] = acc
	}
	return src, nil
}

func decodeRLE[T Int](dst []T, src []byte) ([]byte, error) {
	src, ok := blockHeader(src, RLE, len(dst))
	if !ok {
		return nil, ErrCorrupt
	}
	for at := 0; at < len(dst); {
		vU, rest, ok := getUvarint(src)
		if !ok {
			return nil, ErrCorrupt
		}
		run, rest, ok := getUvarint(rest)
		if !ok || run == 0 || run > uint64(len(dst)-at) {
			return nil, ErrCorrupt
		}
		src = rest
		v := T(unzigzag(vU))
		fill := dst[at : at+int(run)]
		for i := range fill {
			fill[i] = v
		}
		at += int(run)
	}
	return src, nil
}

func decodeNone[T Int](dst []T, src []byte) ([]byte, error) {
	src, ok := blockHeader(src, None, len(dst))
	if !ok || len(src) < 8*len(dst) {
		return nil, ErrCorrupt
	}
	raw := src[:8*len(dst)]
	for i := range dst {
		dst[i] = T(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return src[len(raw):], nil
}

// StringDecoder decodes string blocks. It keeps its dictionary slots from
// block to block, and a block's strings are slices of one string made from
// the block's text region (the dictionary entries, or the raw values), so a
// decoder in steady state allocates once per block. The zero value is ready
// to use; a StringDecoder must not be used concurrently.
type StringDecoder struct {
	dict []string
}

// Decode decodes the string block at the head of src into dst, dispatching
// on its codec byte, and returns the unconsumed remainder of src. The block
// must hold exactly len(dst) values.
func (d *StringDecoder) Decode(dst []string, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, ErrCorrupt
	}
	countDecode(Codec(src[0]), len(src))
	switch Codec(src[0]) {
	case None:
		return decodeStringRaw(dst, src)
	case PDict:
		return d.decodePDict(dst, src)
	default:
		return nil, ErrCorrupt
	}
}

// sliceStrings reads len(dst) entries, each a uvarint length and that many
// bytes, from the head of src. It turns the whole region into one string
// and points dst at the entries inside it.
func sliceStrings(dst []string, src []byte) ([]byte, bool) {
	end := 0
	for range dst {
		l, w := binary.Uvarint(src[end:])
		if w <= 0 || l > uint64(len(src)-end-w) {
			return nil, false
		}
		end += w + int(l)
	}
	region := string(src[:end])
	at := 0
	for i := range dst {
		l, w := binary.Uvarint(src[at:])
		dst[i] = region[at+w : at+w+int(l)]
		at += w + int(l)
	}
	return src[end:], true
}

func decodeStringRaw(dst []string, src []byte) ([]byte, error) {
	src, ok := blockHeader(src, None, len(dst))
	if !ok {
		return nil, ErrCorrupt
	}
	src, ok = sliceStrings(dst, src)
	if !ok {
		return nil, ErrCorrupt
	}
	return src, nil
}

func (d *StringDecoder) decodePDict(dst []string, src []byte) ([]byte, error) {
	b, rest, err := d.OpenPDict(src, len(dst))
	if err != nil {
		return nil, err
	}
	// Unpack a cache-resident run of codes at a time, then gather.
	var codes [512]int32
	for at := 0; at < len(dst); at += len(codes) {
		run := codes[:min(len(codes), len(dst)-at)]
		if err := b.Codes(run, at); err != nil {
			return nil, err
		}
		b.Gather(dst[at:], run, nil)
	}
	return rest, nil
}

// DictBlock is a PDICT block opened without decoding its values: the sorted
// dictionary and the bit-packed codes. A filter on the column maps its value
// range to a code interval once per block (CodeRange), selects on the codes,
// and gathers strings only for the rows that pass (Gather).
type DictBlock struct {
	// Dict holds the block's distinct values in ascending byte order (Go
	// string order, the order of the Select kernels); a code indexes it.
	Dict   []string
	w      uint
	packed []byte
}

// OpenPDict parses the header and dictionary of the PDICT block at the head
// of src, which must hold exactly rows values, and returns the block and the
// unconsumed remainder of src. The codes are checked when Codes unpacks
// them. The dictionary lives in the decoder's slots: the block is valid until
// the decoder opens or decodes the next one.
func (d *StringDecoder) OpenPDict(src []byte, rows int) (DictBlock, []byte, error) {
	src, ok := blockHeader(src, PDict, rows)
	if !ok {
		return DictBlock{}, nil, ErrCorrupt
	}
	if rows == 0 {
		return DictBlock{}, src, nil
	}
	// Every dictionary entry takes at least its length byte, and rows need
	// at least one entry to point at.
	dictN, src, ok := getUvarint(src)
	if !ok || dictN == 0 || dictN > uint64(len(src)) {
		return DictBlock{}, nil, ErrCorrupt
	}
	if uint64(cap(d.dict)) < dictN {
		d.dict = make([]string, dictN)
	}
	dict := d.dict[:dictN]
	src, ok = sliceStrings(dict, src)
	if !ok || len(src) < 1 {
		return DictBlock{}, nil, ErrCorrupt
	}
	w := uint(src[0])
	src = src[1:]
	if w > 64 {
		return DictBlock{}, nil, ErrCorrupt
	}
	packed := packedLen(rows, w)
	if len(src) < packed {
		return DictBlock{}, nil, ErrCorrupt
	}
	return DictBlock{Dict: dict, w: w, packed: src[:packed]}, src[packed:], nil
}

// Codes unpacks the codes of rows [at, at+len(dst)) into dst. at must be a
// multiple of 8 (a run then starts on a byte boundary) and the run must lie
// inside the block. A code outside the dictionary is corruption.
func (b *DictBlock) Codes(dst []int32, at int) error {
	src := b.packed[at/8*int(b.w):]
	n := uint64(len(b.Dict))
	if b.w <= 32 {
		// A code of up to 32 bits survives the narrowing as its uint32. When
		// the dictionary fills the width, every code is valid.
		unpack(dst, src, b.w, 0)
		if uint64(1)<<b.w <= n {
			return nil
		}
		var top uint32
		for _, c := range dst {
			top = max(top, uint32(c))
		}
		if len(dst) > 0 && uint64(top) >= n {
			return ErrCorrupt
		}
		return nil
	}
	// Only a hostile block is this wide: unpack through int64 to check
	// every code before narrowing it.
	var run [64]int64
	for i := 0; i < len(dst); i += len(run) {
		r := run[:min(len(run), len(dst)-i)]
		unpack(r, src[i/8*int(b.w):], b.w, 0)
		for j, c := range r {
			if uint64(c) >= n {
				return ErrCorrupt
			}
			dst[i+j] = int32(c)
		}
	}
	return nil
}

// CodeRange maps the value range [lo, hi] (a nil bound is open) to the
// codes [from, to) of the dictionary entries inside it, by binary search in
// Go string order. from >= to means no row of the block is in range. A block
// whose dictionary is not sorted (never written by EncodePDict) yields some
// interval inside the dictionary.
func (b *DictBlock) CodeRange(lo, hi *string) (from, to int32) {
	from, to = 0, int32(len(b.Dict))
	if lo != nil {
		from = int32(sort.SearchStrings(b.Dict, *lo))
	}
	if hi != nil {
		to = int32(sort.Search(len(b.Dict), func(i int) bool { return b.Dict[i] > *hi }))
	}
	return from, to
}

// Gather writes the strings of codes into dst: at the positions sel lists,
// or at every position of codes when sel is nil. The codes must come from
// Codes on this block.
func (b *DictBlock) Gather(dst []string, codes, sel []int32) {
	dict := b.Dict
	if sel == nil {
		dst = dst[:len(codes)]
		for i, c := range codes {
			dst[i] = dict[c]
		}
		return
	}
	for _, i := range sel {
		dst[i] = dict[codes[i]]
	}
}

// sized returns dst resized (reallocated if too small) to the row count the
// header of the block at the head of src declares.
func sized[E any](dst []E, src []byte) ([]E, bool) {
	if len(src) == 0 {
		return nil, false
	}
	n, _, ok := getUvarint(src[1:])
	if !ok || n > MaxBlockRows {
		return nil, false
	}
	if uint64(cap(dst)) < n {
		dst = make([]E, n)
	}
	return dst[:n], true
}

// DecodeInt64 decodes any integer block by dispatching on its header byte,
// into dst (grown as needed), and returns the values along with the
// unconsumed remainder of src.
func DecodeInt64(dst []int64, src []byte) ([]int64, []byte, error) {
	dst, ok := sized(dst, src)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	rest, err := DecodeInts(dst, src)
	if err != nil {
		return nil, nil, err
	}
	return dst, rest, nil
}

// DecodeString decodes any string block by dispatching on its header byte,
// into dst (grown as needed).
func DecodeString(dst []string, src []byte) ([]string, []byte, error) {
	dst, ok := sized(dst, src)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	var d StringDecoder
	rest, err := d.Decode(dst, src)
	if err != nil {
		return nil, nil, err
	}
	return dst, rest, nil
}
