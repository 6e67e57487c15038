package compress

import "encoding/binary"

// Int is the element type an integer block decodes into: BIGINT (and the
// bit patterns of FLOAT64) as int64, INTEGER and DATE as int32, BOOLEAN as
// the int8 behind a bool. Decoding narrows with Go's conversion, so a kernel
// writing T yields exactly T(v) for the int64 v the block encodes.
type Int interface{ ~int8 | ~int32 | ~int64 }

// unpack decodes len(dst) w-bit codes from the bit stream src (LSB-first,
// little-endian: code i is bits [i*w, (i+1)*w)) and writes base+code,
// narrowed, into dst — unpack, frame-of-reference add and narrowing fused in
// one pass with no staging buffer. src must hold at least
// ceil(len(dst)*w/8) bytes and w must be <= 64.
//
// Byte-aligned widths are direct loads. Widths below 8 take eight codes from
// one 8-byte load. Every other width up to 56 reads the 8 bytes starting at
// the code's first byte, shifts and masks: the loads are independent, so
// nothing but the bit offset is carried between iterations. Wider codes take
// a ninth byte. The last few codes, whose window would run past src, go
// through codeAt.
func unpack[T Int](dst []T, src []byte, w uint, base uint64) {
	n := len(dst)
	switch w {
	case 0:
		v := T(base)
		for i := range dst {
			dst[i] = v
		}
		return
	case 8:
		src = src[:n]
		for i := range dst {
			dst[i] = T(base + uint64(src[i]))
		}
		return
	case 16:
		src = src[:2*n]
		for i := range dst {
			dst[i] = T(base + uint64(binary.LittleEndian.Uint16(src[2*i:])))
		}
		return
	case 32:
		src = src[:4*n]
		for i := range dst {
			dst[i] = T(base + uint64(binary.LittleEndian.Uint32(src[4*i:])))
		}
		return
	case 64:
		src = src[:8*n]
		for i := range dst {
			dst[i] = T(base + binary.LittleEndian.Uint64(src[8*i:]))
		}
		return
	}
	mask := widthMask(w)
	fast := 0
	if w < 8 {
		// Eight codes fill exactly w bytes, so one load serves eight codes
		// (dictionary codes and small PFOR widths). Chunk k's load
		// src[k*w : k*w+8] must lie inside src.
		if len(src) >= 8 {
			fast = min(n/8, (len(src)-8)/int(w)+1) * 8
		}
		for k := 0; k < fast; k += 8 {
			x := binary.LittleEndian.Uint64(src[k/8*int(w):])
			d := dst[k : k+8 : k+8]
			d[0] = T(base + x&mask)
			d[1] = T(base + x>>w&mask)
			d[2] = T(base + x>>(2*w)&mask)
			d[3] = T(base + x>>(3*w)&mask)
			d[4] = T(base + x>>(4*w)&mask)
			d[5] = T(base + x>>(5*w)&mask)
			d[6] = T(base + x>>(6*w)&mask)
			d[7] = T(base + x>>(7*w)&mask)
		}
	} else if w <= 56 {
		// Codes whose window src[bit>>3 : bit>>3+8] lies inside src.
		if len(src) >= 8 {
			fast = min(n, ((len(src)-8)*8+7)/int(w)+1)
		}
		bit := uint(0)
		for i := range dst[:fast] {
			dst[i] = T(base + binary.LittleEndian.Uint64(src[bit>>3:])>>(bit&7)&mask)
			bit += w
		}
	} else {
		// A code this wide can straddle nine bytes: the window grows by one.
		// A shift by 64 yields 0, so a byte-aligned code needs no branch.
		if len(src) >= 9 {
			fast = min(n, ((len(src)-9)*8+7)/int(w)+1)
		}
		bit := uint(0)
		for i := range dst[:fast] {
			at, sh := bit>>3, bit&7
			window := src[at : at+9]
			lo := binary.LittleEndian.Uint64(window)
			dst[i] = T(base + (lo>>sh|uint64(window[8])<<(64-sh))&mask)
			bit += w
		}
	}
	for i := fast; i < n; i++ {
		dst[i] = T(base + codeAt(src, uint(i)*w, w))
	}
}

// codeAt extracts the w-bit code at bit offset bit, reading byte by byte so
// it never looks past the code's own last byte.
func codeAt(src []byte, bit, w uint) uint64 {
	var v uint64
	for got := uint(0); got < w; {
		b := uint64(src[bit>>3]) >> (bit & 7)
		take := 8 - bit&7
		v |= b << got
		got += take
		bit += take
	}
	return v & widthMask(w)
}
