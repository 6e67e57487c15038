package compress

import (
	"slices"
	"strings"
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
	if len(vals) == 0 {
		return putUvarint(append(dst, byte(PDict)), 0)
	}
	e := encoders.Get().(*Encoder)
	defer encoders.Put(e)
	e.buildDict(vals)
	defer e.releaseDict()
	return e.encodePDict(dst, vals)
}

// buildDict fills e.ids with each row's first-seen dictionary id and
// e.dict with the distinct values in first-seen order, and returns the
// length of vals' PDICT block. The map holds the dictionary, not the block,
// and a run of equal values costs one lookup.
func (e *Encoder) buildDict(vals []string) (size int) {
	if e.index == nil {
		e.index = make(map[string]int32)
	}
	ids := resized(e.ids, len(vals))
	dict := e.dict[:0]
	id, prev := int32(-1), ""
	for i, s := range vals {
		if id < 0 || s != prev {
			var ok bool
			if id, ok = e.index[s]; !ok {
				id = int32(len(dict))
				e.index[s] = id
				dict = append(dict, s)
				size += uvarintLen(uint64(len(s))) + len(s)
			}
			prev = s
		}
		ids[i] = id
	}
	e.ids, e.dict = ids, dict
	return size + 1 + uvarintLen(uint64(len(vals))) + uvarintLen(uint64(len(dict))) + 1 +
		packedLen(len(vals), codeWidth(len(dict)))
}

// releaseDict drops the strings buildDict kept, so an idle Encoder does
// not hold a block's values alive, and a map grown by a near-unique block.
func (e *Encoder) releaseDict() {
	if len(e.dict) > 1<<12 {
		e.index = nil
	} else {
		clear(e.index)
	}
	clear(e.dict)
}

// encodePDict appends the PDICT block of a non-empty vals after buildDict:
// the dictionary sorted, each row's first-seen id renumbered to its code.
func (e *Encoder) encodePDict(dst []byte, vals []string) []byte {
	dict := e.dict
	perm := resized(e.perm, len(dict))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return strings.Compare(dict[a], dict[b]) })
	rank := resized(e.rank, len(dict))
	for code, id := range perm {
		rank[id] = int32(code)
	}
	e.perm, e.rank = perm, rank
	dst = append(dst, byte(PDict))
	dst = putUvarint(dst, uint64(len(vals)))
	dst = putUvarint(dst, uint64(len(dict)))
	for _, id := range perm {
		dst = putUvarint(dst, uint64(len(dict[id])))
		dst = append(dst, dict[id]...)
	}
	w := codeWidth(len(dict))
	dst = append(dst, byte(w))
	p := bitPacker{dst: dst, w: w}
	for _, id := range e.ids[:len(vals)] {
		p.put(uint64(rank[id]))
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

// ChooseString appends the PDICT encoding of vals to dst when it is
// strictly shorter than raw storage, and the raw encoding otherwise.
func ChooseString(dst []byte, vals []string) ([]byte, Codec) {
	e := encoders.Get().(*Encoder)
	defer encoders.Put(e)
	return e.ChooseString(dst, vals)
}

// ChooseString is the package-level ChooseString on e's working memory.
func (e *Encoder) ChooseString(dst []byte, vals []string) ([]byte, Codec) {
	raw := 1 + uvarintLen(uint64(len(vals)))
	for _, s := range vals {
		raw += uvarintLen(uint64(len(s))) + len(s)
	}
	if len(vals) > 0 {
		size := e.buildDict(vals)
		defer e.releaseDict()
		if size < raw {
			return e.encodePDict(slices.Grow(dst, size), vals), PDict
		}
	}
	return EncodeStringRaw(slices.Grow(dst, raw), vals), None
}
