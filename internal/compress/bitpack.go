// Package compress implements the light-weight, CPU-friendly compression
// schemes of the X100 storage layer: PFOR (patched frame-of-reference),
// PFOR-DELTA and PDICT, as described in "Super-Scalar RAM-CPU Cache
// Compression" (Zukowski, Heman, Nes, Boncz; ICDE 2006), plus RLE for
// sorted columns.
//
// The design goal these schemes share — and the reason the paper's storage
// layer could keep a vectorized CPU "I/O balanced" — is that *decompression
// is a tight loop with no data-dependent branches on the hot path*:
// bulk-unpack fixed-width codes, then patch the rare exceptions afterwards.
// General-purpose codecs (gzip/flate) compress better but decode an order
// of magnitude slower. bench/ reports decode speeds as
// compress.decode_mbps.<codec>.
package compress

import "encoding/binary"

// Bit packing: n values of width w bits, LSB-first within little-endian
// 64-bit words. Width 0 encodes a column of all-zero deltas in zero bytes.

// packedLen returns the byte length of n packed w-bit values.
func packedLen(n int, w uint) int {
	bits := n * int(w)
	return (bits + 63) / 64 * 8
}

// bitPacker appends w-bit values to dst one at a time, so an encoder packs
// its codes as it computes them instead of staging them in a slice.
type bitPacker struct {
	dst   []byte
	w     uint
	acc   uint64
	nbits uint
}

// put appends the low w bits of v.
func (p *bitPacker) put(v uint64) {
	if p.w == 0 {
		return
	}
	v &= widthMask(p.w)
	p.acc |= v << p.nbits
	p.nbits += p.w
	if p.nbits >= 64 {
		p.dst = binary.LittleEndian.AppendUint64(p.dst, p.acc)
		p.nbits -= 64
		// The bits of v that did not fit (none when it ended on the word
		// boundary: a shift by w yields 0 only below 64, hence the branch).
		p.acc = 0
		if p.nbits > 0 {
			p.acc = v >> (p.w - p.nbits)
		}
	}
}

// finish pads the last word with zero bits and returns dst.
func (p *bitPacker) finish() []byte {
	if p.nbits > 0 {
		p.dst = binary.LittleEndian.AppendUint64(p.dst, p.acc)
	}
	return p.dst
}

func widthMask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Zigzag maps signed to unsigned so small-magnitude negatives stay small.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarint helpers for headers.
func putUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func getUvarint(src []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, false
	}
	return v, src[n:], true
}
