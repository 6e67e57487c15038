package compress

import (
	"encoding/binary"
	"slices"
	"sort"
)

// The reference decoders: the package's decoders as they were before the
// typed kernels — one generic bit-state unpack loop into a staging slice,
// then a second pass per codec — with only the hostile-input comparisons
// fixed so that fuzzing can run them. The property tests and fuzz targets
// hold the kernels to these, value for value and tail for tail.

// unpackBits decodes n w-bit values from src into dst[:n].
func unpackBits(dst []uint64, src []byte, n int, w uint) {
	if w == 0 {
		for i := 0; i < n; i++ {
			dst[i] = 0
		}
		return
	}
	mask := widthMask(w)
	var acc uint64
	var nbits uint
	word := 0
	for i := 0; i < n; i++ {
		if nbits < w {
			next := binary.LittleEndian.Uint64(src[word*8:])
			word++
			v := (acc | next<<nbits) & mask
			dst[i] = v
			used := w - nbits
			acc = next >> used
			nbits = 64 - used
		} else {
			dst[i] = acc & mask
			acc >>= w
			nbits -= w
		}
	}
}

// packBits appends the w-bit values vals to dst: the slice-at-once form of
// bitPacker the width tests use.
func packBits(dst []byte, vals []uint64, w uint) []byte {
	p := bitPacker{dst: dst, w: w}
	for _, v := range vals {
		p.put(v)
	}
	return p.finish()
}

// refHeader checks the codec byte and reads a row count within the cap.
func refHeader(src []byte, c Codec) (int, []byte, bool) {
	if len(src) == 0 || Codec(src[0]) != c {
		return 0, nil, false
	}
	nU, src, ok := getUvarint(src[1:])
	if !ok || nU > MaxBlockRows {
		return 0, nil, false
	}
	return int(nU), src, true
}

func refDecodePFOR(src []byte) ([]int64, []byte, error) {
	n, src, ok := refHeader(src, PFOR)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	dst := make([]int64, n)
	if n == 0 {
		return dst, src, nil
	}
	baseU, src, ok := getUvarint(src)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	base := unzigzag(baseU)
	if len(src) < 1 {
		return nil, nil, ErrCorrupt
	}
	w := uint(src[0])
	src = src[1:]
	nExcU, src, ok := getUvarint(src)
	if !ok || w > 64 {
		return nil, nil, ErrCorrupt
	}
	packed := packedLen(n, w)
	if len(src) < packed {
		return nil, nil, ErrCorrupt
	}
	codes := make([]uint64, n)
	unpackBits(codes, src[:packed], n, w)
	src = src[packed:]
	for i := 0; i < n; i++ {
		dst[i] = base + int64(codes[i])
	}
	pos := 0
	for e := uint64(0); e < nExcU; e++ {
		dp, rest, ok := getUvarint(src)
		if !ok {
			return nil, nil, ErrCorrupt
		}
		v, rest2, ok := getUvarint(rest)
		if !ok {
			return nil, nil, ErrCorrupt
		}
		src = rest2
		if dp >= uint64(n-pos) {
			return nil, nil, ErrCorrupt
		}
		pos += int(dp)
		dst[pos] = unzigzag(v)
	}
	return dst, src, nil
}

func refDecodePFORDelta(src []byte) ([]int64, []byte, error) {
	n, src, ok := refHeader(src, PFORDelta)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	dst := make([]int64, n)
	if n == 0 {
		return dst, src, nil
	}
	firstU, src, ok := getUvarint(src)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	deltas, src, err := refDecodePFOR(src)
	if err != nil {
		return nil, nil, err
	}
	if len(deltas) != n-1 {
		return nil, nil, ErrCorrupt
	}
	acc := unzigzag(firstU)
	dst[0] = acc
	for i, d := range deltas {
		acc += d
		dst[i+1] = acc
	}
	return dst, src, nil
}

func refDecodeRLE(src []byte) ([]int64, []byte, error) {
	n, src, ok := refHeader(src, RLE)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	dst := make([]int64, n)
	at := 0
	for at < n {
		vU, rest, ok := getUvarint(src)
		if !ok {
			return nil, nil, ErrCorrupt
		}
		runU, rest2, ok := getUvarint(rest)
		if !ok {
			return nil, nil, ErrCorrupt
		}
		src = rest2
		v := unzigzag(vU)
		if runU == 0 || runU > uint64(n-at) {
			return nil, nil, ErrCorrupt
		}
		run := int(runU)
		for k := 0; k < run; k++ {
			dst[at+k] = v
		}
		at += run
	}
	return dst, src, nil
}

func refDecodeNone(src []byte) ([]int64, []byte, error) {
	n, src, ok := refHeader(src, None)
	if !ok || len(src) < n*8 {
		return nil, nil, ErrCorrupt
	}
	dst := make([]int64, n)
	for i := 0; i < n; i++ {
		dst[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return dst, src[n*8:], nil
}

// refDecodeInt64 decodes any integer block the way DecodeInt64 used to.
func refDecodeInt64(src []byte) ([]int64, []byte, error) {
	if len(src) == 0 {
		return nil, nil, ErrCorrupt
	}
	switch Codec(src[0]) {
	case None:
		return refDecodeNone(src)
	case PFOR:
		return refDecodePFOR(src)
	case PFORDelta:
		return refDecodePFORDelta(src)
	case RLE:
		return refDecodeRLE(src)
	default:
		return nil, nil, ErrCorrupt
	}
}

func refDecodeStringRaw(src []byte) ([]string, []byte, error) {
	n, src, ok := refHeader(src, None)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	dst := make([]string, n)
	for i := 0; i < n; i++ {
		lU, rest, ok := getUvarint(src)
		if !ok || lU > uint64(len(rest)) {
			return nil, nil, ErrCorrupt
		}
		dst[i] = string(rest[:lU])
		src = rest[lU:]
	}
	return dst, src, nil
}

func refDecodePDict(src []byte) ([]string, []byte, error) {
	n, src, ok := refHeader(src, PDict)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	dst := make([]string, n)
	if n == 0 {
		return dst, src, nil
	}
	dU, src, ok := getUvarint(src)
	if !ok || dU > uint64(len(src)) {
		return nil, nil, ErrCorrupt
	}
	dict := make([]string, dU)
	for i := range dict {
		lU, rest, ok := getUvarint(src)
		if !ok || lU > uint64(len(rest)) {
			return nil, nil, ErrCorrupt
		}
		dict[i] = string(rest[:lU])
		src = rest[lU:]
	}
	if len(src) < 1 {
		return nil, nil, ErrCorrupt
	}
	w := uint(src[0])
	src = src[1:]
	if w > 64 {
		return nil, nil, ErrCorrupt
	}
	packed := packedLen(n, w)
	if len(src) < packed {
		return nil, nil, ErrCorrupt
	}
	codes := make([]uint64, n)
	unpackBits(codes, src[:packed], n, w)
	for i, c := range codes {
		if c >= uint64(len(dict)) {
			return nil, nil, ErrCorrupt
		}
		dst[i] = dict[c]
	}
	return dst, src[packed:], nil
}

// refDecodeString decodes any string block the way DecodeString used to.
func refDecodeString(src []byte) ([]string, []byte, error) {
	if len(src) == 0 {
		return nil, nil, ErrCorrupt
	}
	switch Codec(src[0]) {
	case None:
		return refDecodeStringRaw(src)
	case PDict:
		return refDecodePDict(src)
	default:
		return nil, nil, ErrCorrupt
	}
}

// The reference encoders: the package's codec choice as it was before the
// pruned search — every width of every codec tried on a sorted copy, every
// codec encoded, the shortest kept. The property tests and fuzz targets hold
// ChooseInt64 and ChooseString to these byte for byte.

// refChoosePFOR picks (base, width) minimizing estimated block size by
// sliding a window of each of the 64 candidate widths over sorted values.
func refChoosePFOR(vals []int64) (int64, uint) {
	n := len(vals)
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	bestBase, bestW := sorted[0], uint(64)
	bestCost := n * 8 // cost of w=64, no exceptions
	for w := uint(0); w < 64; w++ {
		span := widthMask(w) // max representable offset
		covered, coverIdx := 0, 0
		j := 0
		for i := 0; i < n; i++ {
			if j < i {
				j = i
			}
			for j < n && uint64(sorted[j])-uint64(sorted[i]) <= span {
				j++
			}
			if j-i > covered {
				covered = j - i
				coverIdx = i
			}
			if j == n {
				break
			}
		}
		cost := (n*int(w)+7)/8 + (n-covered)*exceptionCost
		if cost < bestCost {
			bestCost = cost
			bestW = w
			bestBase = sorted[coverIdx]
		}
	}
	return bestBase, bestW
}

func refEncodePFOR(dst []byte, vals []int64) []byte {
	if len(vals) == 0 {
		return putUvarint(append(dst, byte(PFOR)), 0)
	}
	base, w := refChoosePFOR(vals)
	return encodePFORAt(dst, vals, base, w)
}

func refEncodePFORDelta(dst []byte, vals []int64) []byte {
	dst = append(dst, byte(PFORDelta))
	dst = putUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	dst = putUvarint(dst, zigzag(vals[0]))
	deltas := make([]int64, len(vals)-1)
	for i := 1; i < len(vals); i++ {
		deltas[i-1] = vals[i] - vals[i-1]
	}
	return refEncodePFOR(dst, deltas)
}

// refChooseInt64 encodes vals with every integer codec and keeps the
// smallest encoding.
func refChooseInt64(dst []byte, vals []int64) ([]byte, Codec) {
	best := refEncodePFOR(nil, vals)
	bestCodec := PFOR
	if c := refEncodePFORDelta(nil, vals); len(c) < len(best) {
		best, bestCodec = c, PFORDelta
	}
	if c := EncodeRLE(nil, vals); len(c) < len(best) {
		best, bestCodec = c, RLE
	}
	if raw := len(vals)*8 + 10; raw < len(best) {
		best, bestCodec = EncodeNone(nil, vals), None
	}
	return append(dst, best...), bestCodec
}

// refEncodePDict builds the sorted dictionary through a set sized to the
// block and a second map from value to code.
func refEncodePDict(dst []byte, vals []string) []byte {
	dst = append(dst, byte(PDict))
	dst = putUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	set := make(map[string]struct{}, len(vals))
	for _, s := range vals {
		set[s] = struct{}{}
	}
	dict := make([]string, 0, len(set))
	for s := range set {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	code := make(map[string]uint64, len(dict))
	for i, s := range dict {
		code[s] = uint64(i)
	}
	dst = putUvarint(dst, uint64(len(dict)))
	for _, s := range dict {
		dst = putUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	w := codeWidth(len(dict))
	dst = append(dst, byte(w))
	p := bitPacker{dst: dst, w: w}
	for _, s := range vals {
		p.put(code[s])
	}
	return p.finish()
}

// refChooseString encodes both string codecs and keeps PDICT when it is
// strictly shorter.
func refChooseString(dst []byte, vals []string) ([]byte, Codec) {
	d := refEncodePDict(nil, vals)
	r := EncodeStringRaw(nil, vals)
	if len(d) < len(r) {
		return append(dst, d...), PDict
	}
	return append(dst, r...), None
}
