package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PFOR: patched frame-of-reference. Values are encoded as fixed-width
// unsigned offsets from a base (the block minimum). The width is chosen so
// that *most* values fit; the rest — the exceptions — are stored verbatim
// on the side and patched into the output after the branch-free bulk
// unpack. This keeps the decode loop super-scalar even on skewed data,
// which is the scheme's whole point.

// ErrCorrupt reports an undecodable block.
var ErrCorrupt = errors.New("compress: corrupt block")

// Codec identifies a compression scheme in block headers.
type Codec uint8

// The block codecs.
const (
	None Codec = iota
	PFOR
	PFORDelta
	RLE
	PDict
)

// String names the codec.
func (c Codec) String() string {
	switch c {
	case None:
		return "none"
	case PFOR:
		return "pfor"
	case PFORDelta:
		return "pfor-delta"
	case RLE:
		return "rle"
	case PDict:
		return "pdict"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// exceptionCost is the approximate per-exception storage cost in bytes
// (position delta + value), used when choosing the code width.
const exceptionCost = 11

// EncodePFOR appends a PFOR block for vals to dst.
//
// Layout: uvarint n | uvarint zigzag(base) | byte width | uvarint nExc |
// packed codes | exceptions (uvarint pos-delta, uvarint zigzag(value))*.
// Exception values are absolute (not offsets), so they can lie below base.
func EncodePFOR(dst []byte, vals []int64) []byte {
	e := encoders.Get().(*Encoder)
	defer encoders.Put(e)
	return e.planPFOR(vals).encode(dst, vals)
}

// encodePFORAt appends the PFOR block of a non-empty vals under the frame of
// reference [base, base+2^w).
func encodePFORAt(dst []byte, vals []int64, base int64, w uint) []byte {
	dst = append(dst, byte(PFOR))
	dst = putUvarint(dst, uint64(len(vals)))
	dst = putUvarint(dst, zigzag(base))
	dst = append(dst, byte(w))
	span := widthMask(w)
	isException := func(v int64) bool {
		return v < base || (w < 64 && uint64(v)-uint64(base) > span)
	}
	nExc := 0
	for _, v := range vals {
		if isException(v) {
			nExc++
		}
	}
	dst = putUvarint(dst, uint64(nExc))
	// Exceptions' code slots hold 0.
	p := bitPacker{dst: dst, w: w}
	for _, v := range vals {
		if isException(v) {
			p.put(0)
		} else {
			p.put(uint64(v) - uint64(base))
		}
	}
	dst = p.finish()
	prev := 0
	for i, v := range vals {
		if isException(v) {
			dst = putUvarint(dst, uint64(i-prev))
			prev = i
			dst = putUvarint(dst, zigzag(v))
		}
	}
	return dst
}

// EncodePFORDelta appends a PFOR-DELTA block: consecutive differences
// compressed with PFOR. Ideal for sorted or clustered columns (keys, dates,
// row IDs).
func EncodePFORDelta(dst []byte, vals []int64) []byte {
	if len(vals) == 0 {
		return putUvarint(append(dst, byte(PFORDelta)), 0)
	}
	e := encoders.Get().(*Encoder)
	defer encoders.Put(e)
	deltas := e.deltasOf(vals)
	return encodePFORDelta(dst, vals, deltas, e.planPFOR(deltas))
}

// EncodeRLE appends a run-length block: (zigzag value, run length) pairs.
func EncodeRLE(dst []byte, vals []int64) []byte {
	dst = append(dst, byte(RLE))
	dst = putUvarint(dst, uint64(len(vals)))
	i := 0
	for i < len(vals) {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = putUvarint(dst, zigzag(vals[i]))
		dst = putUvarint(dst, uint64(j-i))
		i = j
	}
	return dst
}

// EncodeNone appends an uncompressed block of raw little-endian values.
func EncodeNone(dst []byte, vals []int64) []byte {
	dst = append(dst, byte(None))
	dst = putUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}
