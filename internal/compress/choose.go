package compress

import (
	"math/bits"
	"slices"
	"sync"
)

// Codec choice without trial and error. A flush (table load, COPY,
// CHECKPOINT) picks a codec for every block, so the choice must cost a few
// passes over the block, not an encoding per codec and a search per width:
//
//   - PFOR's width search sorts the block once (an LSD radix sort over only
//     the bytes in which the values differ; none for an ascending block),
//     collapses equal values, and tries only widths that can win: none
//     above wFull, the width that covers the whole range with no
//     exceptions, and, searching down from it, none once the exceptions
//     alone cost more than the best block so far (coverage never grows as
//     the width narrows). Both cuts are strict, so the result is exactly
//     that of trying all 64 widths.
//   - Every codec's block size is computed, not encoded; only the winner is
//     encoded, straight into dst, which grows once to the exact size.

// Encoder chooses a codec for each block it is given and encodes the block
// with it, keeping its working memory from one block to the next, so that
// encoding block after block allocates only the blocks. The zero value is
// ready to use; an Encoder must not be used concurrently.
type Encoder struct {
	keys, tmp []uint64         // radix sort buffers
	starts    []int32          // first sorted index of each distinct value, then n
	deltas    []int64          // PFOR-DELTA's consecutive differences
	ids       []int32          // per row: PDICT first-seen dictionary id
	dict      []string         // PDICT entries in first-seen order
	index     map[string]int32 // dict's first-seen ids
	perm      []int32          // code -> first-seen id
	rank      []int32          // first-seen id -> code
}

// encoders serve the package-level encoding functions.
var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// resized returns s with length n, reusing its backing array when it is
// large enough.
func resized[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// uvarintLen is the length putUvarint appends for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

const signBit = 1 << 63

// sortOffsets returns the values' distances from their minimum in ascending
// order, and that minimum as an order-preserving key (the value with its
// sign bit flipped). Differences of offsets are differences of values, so
// the width search runs on offsets directly.
func (e *Encoder) sortOffsets(vals []int64) (off []uint64, lo uint64) {
	lo, ascending := ^uint64(0), true
	for i, v := range vals {
		lo = min(lo, uint64(v)^signBit)
		ascending = ascending && (i == 0 || v >= vals[i-1])
	}
	a, b := resized(e.keys, len(vals)), resized(e.tmp, len(vals))
	e.keys, e.tmp = a, b
	for i, v := range vals {
		a[i] = uint64(v) ^ signBit - lo
	}
	if ascending { // a clustered column: nothing to sort
		return a, lo
	}
	// A byte position where no two offsets differ needs no pass; above the
	// range's top bit none do.
	var or, and uint64 = 0, ^uint64(0)
	for _, o := range a {
		or |= o
		and &= o
	}
	differ := or ^ and
	for shift := uint(0); shift < 64 && differ>>shift != 0; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, o := range a {
			at[byte(o>>shift)]++
		}
		sum := 0
		for d, c := range at {
			at[d] = sum
			sum += c
		}
		for _, o := range a {
			d := byte(o >> shift)
			b[at[d]] = o
			at[d]++
		}
		a, b = b, a
	}
	return a, lo
}

// choosePFOR picks (base, width) minimizing estimated block size, and
// reports how many values fall outside [base, base+2^w) as exceptions.
// Exceptions may lie on *either* side of the covered window, so a single
// wild outlier — high or low — cannot blow up the frame of reference; it
// just becomes a patched exception. For each candidate width a window
// slides over the sorted distinct values (two pointers) to find the densest
// coverage; ties go to the smallest width and the first densest window.
func (e *Encoder) choosePFOR(vals []int64) (base int64, w uint, nExc int) {
	n := len(vals)
	off, lo := e.sortOffsets(vals)
	// Collapse runs of equal offsets: u[d] is the d-th distinct offset,
	// starts[d] its first index in off.
	starts := resized(e.starts, n+1)
	e.starts = starts
	d := 0
	for i, o := range off {
		if d == 0 || o != off[d-1] {
			off[d] = o
			starts[d] = int32(i)
			d++
		}
	}
	starts[d] = int32(n)
	u := off[:d]

	bestOff, bestW, bestCovered := uint64(0), uint(64), n
	bestCost := n * 8 // cost of w=64, no exceptions
	for w := min(uint(bits.Len64(u[d-1])), 63); ; w-- {
		covered, first := densest(u, starts, widthMask(w))
		exc := (n - covered) * exceptionCost
		if exc > bestCost {
			break // narrower widths cover no more values
		}
		// Searching downward, an equal cost replaces the wider width; only
		// w=64, the starting point, must be beaten strictly.
		if cost := (n*int(w)+7)/8 + exc; cost < bestCost || cost == bestCost && bestW < 64 {
			bestOff, bestW, bestCovered, bestCost = first, w, covered, cost
		}
		if w == 0 {
			break
		}
	}
	return int64((lo + bestOff) ^ signBit), bestW, n - bestCovered
}

// densest returns the largest number of values a window [u[i], u[i]+span]
// covers, and the first u[i] achieving it. u holds distinct ascending
// offsets; starts[i+1]-starts[i] is how many values equal u[i].
func densest(u []uint64, starts []int32, span uint64) (covered int, first uint64) {
	j := 0
	for i, lo := range u {
		for j < len(u) && u[j]-lo <= span {
			j++
		}
		if c := int(starts[j] - starts[i]); c > covered {
			covered, first = c, lo
		}
		if j == len(u) {
			break
		}
	}
	return covered, first
}

// pforPlan is a chosen PFOR frame of reference and the exact length of the
// block it encodes to.
type pforPlan struct {
	base int64
	w    uint
	size int
}

// planPFOR chooses the frame of reference for vals and sizes its block.
func (e *Encoder) planPFOR(vals []int64) pforPlan {
	n := len(vals)
	if n == 0 {
		return pforPlan{size: 2}
	}
	base, w, nExc := e.choosePFOR(vals)
	size := 1 + uvarintLen(uint64(n)) + uvarintLen(zigzag(base)) + 1 +
		uvarintLen(uint64(nExc)) + packedLen(n, w)
	if nExc > 0 {
		span, prev := widthMask(w), 0
		for i, v := range vals {
			if v < base || uint64(v)-uint64(base) > span {
				size += uvarintLen(uint64(i-prev)) + uvarintLen(zigzag(v))
				prev = i
			}
		}
	}
	return pforPlan{base, w, size}
}

// encode appends the planned PFOR block of vals to dst.
func (p pforPlan) encode(dst []byte, vals []int64) []byte {
	if len(vals) == 0 {
		return putUvarint(append(dst, byte(PFOR)), 0)
	}
	return encodePFORAt(dst, vals, p.base, p.w)
}

// deltasOf returns the consecutive differences of a non-empty vals.
func (e *Encoder) deltasOf(vals []int64) []int64 {
	deltas := resized(e.deltas, len(vals)-1)
	e.deltas = deltas
	for i := range deltas {
		deltas[i] = vals[i+1] - vals[i]
	}
	return deltas
}

// pforDeltaSize is the length of the PFOR-DELTA block of a non-empty vals
// whose deltas are planned as p.
func pforDeltaSize(vals []int64, p pforPlan) int {
	return 1 + uvarintLen(uint64(len(vals))) + uvarintLen(zigzag(vals[0])) + p.size
}

// encodePFORDelta appends the PFOR-DELTA block of a non-empty vals whose
// deltas are planned as p.
func encodePFORDelta(dst []byte, vals, deltas []int64, p pforPlan) []byte {
	dst = append(dst, byte(PFORDelta))
	dst = putUvarint(dst, uint64(len(vals)))
	dst = putUvarint(dst, zigzag(vals[0]))
	return p.encode(dst, deltas)
}

// rleSize is the length of the RLE block of vals, or some length of at
// least limit once it is known to reach limit.
func rleSize(vals []int64, limit int) int {
	size := 1 + uvarintLen(uint64(len(vals)))
	for i := 0; i < len(vals) && size < limit; {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		size += uvarintLen(zigzag(vals[i])) + uvarintLen(uint64(j-i))
		i = j
	}
	return size
}

// ChooseInt64 appends the smallest of the PFOR, PFOR-DELTA, RLE and raw
// encodings of vals to dst — the per-block codec choice the column store
// makes at append time. Ties go to PFOR, then PFOR-DELTA, then RLE; raw
// storage is charged a flat 10 header bytes.
func ChooseInt64(dst []byte, vals []int64) ([]byte, Codec) {
	e := encoders.Get().(*Encoder)
	defer encoders.Put(e)
	return e.ChooseInt64(dst, vals)
}

// ChooseInt64 is the package-level ChooseInt64 on e's working memory.
func (e *Encoder) ChooseInt64(dst []byte, vals []int64) ([]byte, Codec) {
	n := len(vals)
	if n == 0 {
		return putUvarint(append(dst, byte(PFOR)), 0), PFOR
	}
	pfor := e.planPFOR(vals)
	deltas := e.deltasOf(vals)
	delta := e.planPFOR(deltas)
	codec, size := PFOR, pfor.size
	if s := pforDeltaSize(vals, delta); s < size {
		codec, size = PFORDelta, s
	}
	if s := rleSize(vals, size); s < size {
		codec, size = RLE, s
	}
	if n*8+10 < size {
		codec, size = None, 1+uvarintLen(uint64(n))+n*8
	}
	dst = slices.Grow(dst, size)
	switch codec {
	case PFOR:
		return pfor.encode(dst, vals), codec
	case PFORDelta:
		return encodePFORDelta(dst, vals, deltas, delta), codec
	case RLE:
		return EncodeRLE(dst, vals), codec
	default:
		return EncodeNone(dst, vals), codec
	}
}
