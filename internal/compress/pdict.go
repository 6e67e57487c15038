package compress

import (
	"sort"
)

// PDICT: dictionary compression for string columns. Distinct values are
// stored once (sorted, for deterministic output and range-predicate
// friendliness); per-row codes are bit-packed at the minimal width. The
// decode hot loop is a gather from the dictionary — no parsing, no
// allocation per value (Go strings share the dictionary's backing).

// EncodeStringRaw appends an uncompressed string block: uvarint count, then
// uvarint length + bytes per value.
func EncodeStringRaw(dst []byte, vals []string) []byte {
	dst = append(dst, byte(None))
	dst = putUvarint(dst, uint64(len(vals)))
	for _, s := range vals {
		dst = putUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// EncodePDict appends a dictionary-compressed string block.
//
// Layout: uvarint n | uvarint dictSize | dict entries (uvarint len+bytes) |
// byte codeWidth | packed codes.
func EncodePDict(dst []byte, vals []string) []byte {
	dst = append(dst, byte(PDict))
	dst = putUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	// Build the sorted dictionary.
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

func codeWidth(dictSize int) uint {
	w := uint(0)
	for (1 << w) < dictSize {
		w++
	}
	return w
}

// ChooseString adaptively picks PDICT when it beats raw storage.
func ChooseString(dst []byte, vals []string) ([]byte, Codec) {
	d := EncodePDict(nil, vals)
	r := EncodeStringRaw(nil, vals)
	if len(d) < len(r) {
		return append(dst, d...), PDict
	}
	return append(dst, r...), None
}
