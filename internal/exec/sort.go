package exec

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

var errNoSortKeys = errors.New("exec: sort without keys")

// SortKey orders by one column.
type SortKey struct {
	Col  int
	Desc bool
}

// rowCmp orders row ai of the columns a against row bi of the columns b
// under a list of sort keys. Both sides are (columns, row), so one builder
// serves a sort's store against itself, a batch against top-N slots, and two
// batches of different merge streams.
type rowCmp func(a []*vec.Vector, ai int, b []*vec.Vector, bi int) int

// newRowCmp builds the comparator of the given keys over columns of the
// given kinds. Every kind's order is total: DOUBLE follows
// types.CompareFloat64 (NaN after every number, first under DESC).
func newRowCmp(kinds []types.Kind, keys []SortKey) (rowCmp, error) {
	cmps := make([]rowCmp, len(keys))
	for i, k := range keys {
		col, sign := k.Col, 1
		if k.Desc {
			sign = -1
		}
		switch kinds[col] {
		case types.KindBool:
			cmps[i] = func(a []*vec.Vector, ai int, b []*vec.Vector, bi int) int {
				return sign * cmp.Compare(boolKey(a[col].Bool[ai]), boolKey(b[col].Bool[bi]))
			}
		case types.KindInt32, types.KindDate:
			cmps[i] = func(a []*vec.Vector, ai int, b []*vec.Vector, bi int) int {
				return sign * cmp.Compare(a[col].I32[ai], b[col].I32[bi])
			}
		case types.KindInt64:
			cmps[i] = func(a []*vec.Vector, ai int, b []*vec.Vector, bi int) int {
				return sign * cmp.Compare(a[col].I64[ai], b[col].I64[bi])
			}
		case types.KindFloat64:
			cmps[i] = func(a []*vec.Vector, ai int, b []*vec.Vector, bi int) int {
				return sign * types.CompareFloat64(a[col].F64[ai], b[col].F64[bi])
			}
		case types.KindString:
			cmps[i] = func(a []*vec.Vector, ai int, b []*vec.Vector, bi int) int {
				return sign * cmp.Compare(a[col].Str[ai], b[col].Str[bi])
			}
		default:
			return nil, fmt.Errorf("exec: sort on kind %v", kinds[col])
		}
	}
	if len(cmps) == 1 {
		return cmps[0], nil
	}
	return func(a []*vec.Vector, ai int, b []*vec.Vector, bi int) int {
		for _, c := range cmps {
			if r := c(a, ai, b, bi); r != 0 {
				return r
			}
		}
		return 0
	}, nil
}

func boolKey(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// floatKey maps a float to an integer with the order of
// types.CompareFloat64: NaN highest, the two zeros equal.
func floatKey(f float64) int64 {
	switch {
	case f != f:
		return math.MaxInt64
	case f == 0:
		return 0
	}
	b := int64(math.Float64bits(f))
	if b < 0 {
		b ^= math.MaxInt64
	}
	return b
}

// Sort materializes its input and emits it ordered by the sort keys
// (stable: equal keys keep arrival order).
type Sort struct {
	Child Operator
	Keys  []SortKey

	ctx    *Ctx
	store  []*vec.Vector
	perm   []int32
	emitAt int
	out    *vec.Batch
	built  bool
}

// NewSort builds a sort operator.
func NewSort(child Operator, keys []SortKey) *Sort {
	return &Sort{Child: child, Keys: keys}
}

// Kinds implements Operator.
func (s *Sort) Kinds() []types.Kind { return s.Child.Kinds() }

// Open implements Operator.
func (s *Sort) Open(ctx *Ctx) error {
	if len(s.Keys) == 0 {
		return errNoSortKeys
	}
	s.ctx = ctx
	s.built = false
	s.emitAt = 0
	s.perm = nil
	kinds := s.Child.Kinds()
	s.store = make([]*vec.Vector, len(kinds))
	for i, k := range kinds {
		s.store[i] = vec.New(k, ctx.vecSize())
	}
	s.out = vec.NewBatch(kinds, ctx.vecSize())
	return s.Child.Open(ctx)
}

// Next implements Operator.
func (s *Sort) Next() (*vec.Batch, error) {
	if !s.built {
		if err := s.consume(); err != nil {
			return nil, err
		}
		if err := s.sort(); err != nil {
			return nil, err
		}
		s.built = true
	}
	if s.emitAt >= len(s.perm) {
		return nil, nil
	}
	if err := s.ctx.poll(); err != nil {
		return nil, err
	}
	n := min(s.ctx.vecSize(), len(s.perm)-s.emitAt)
	gatherRows(s.out, s.store, s.perm[s.emitAt:s.emitAt+n])
	s.emitAt += n
	return s.out, nil
}

// gatherRows fills out with the given rows of store.
func gatherRows(out *vec.Batch, store []*vec.Vector, rows []int32) {
	for c, v := range out.Vecs {
		v.Reset()
		v.GatherFrom(store[c], rows)
	}
	out.Sel = nil
	out.ForceLen(len(rows))
}

func (s *Sort) consume() error {
	for {
		if err := s.ctx.poll(); err != nil {
			return err
		}
		b, err := s.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if err := s.ctx.charge(b); err != nil {
			return err
		}
		for c := range s.store {
			appendSelected(s.store[c], b.Vecs[c], b.Sel, b.Full())
		}
	}
}

// keyedRow is one entry of the array a sort works on: the row's leading
// key, copied next to its id so ordering by it touches nothing else.
type keyedRow[K comparable] struct {
	key K
	row int32
}

// sort computes perm, the stored rows in output order: first by the leading
// key alone, stably; then each run of equal leading keys by the other keys.
func (s *Sort) sort() error {
	var rest rowCmp
	if len(s.Keys) > 1 {
		var err error
		if rest, err = newRowCmp(s.Child.Kinds(), s.Keys[1:]); err != nil {
			return err
		}
	}
	lead, desc := s.store[s.Keys[0].Col], s.Keys[0].Desc
	n := lead.Len()
	if lead.Kind == types.KindString {
		rows := make([]keyedRow[string], n)
		for i := range rows {
			rows[i] = keyedRow[string]{lead.Str[i], int32(i)}
		}
		sign := 1
		if desc {
			sign = -1
		}
		slices.SortFunc(rows, func(a, b keyedRow[string]) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return sign * c
			}
			return cmp.Compare(a.row, b.row)
		})
		s.perm = finishOrder(rows, s.store, rest)
		return nil
	}
	// Every other kind maps to an integer of the same order, which sorts by
	// radix: no comparisons, stable for free.
	rows := make([]keyedRow[uint64], n)
	for i := range rows {
		var k int64
		switch lead.Kind {
		case types.KindBool:
			k = boolKey(lead.Bool[i])
		case types.KindInt32, types.KindDate:
			k = int64(lead.I32[i])
		case types.KindInt64:
			k = lead.I64[i]
		case types.KindFloat64:
			k = floatKey(lead.F64[i])
		default:
			return fmt.Errorf("exec: sort on kind %v", lead.Kind)
		}
		u := uint64(k) ^ 1<<63 // signed order as unsigned order
		if desc {
			u = ^u
		}
		rows[i] = keyedRow[uint64]{u, int32(i)}
	}
	s.perm = finishOrder(radixSort(rows), s.store, rest)
	return nil
}

// radixSort orders rows by key and keeps equal keys in their order: least
// significant byte first, one pass per byte in which the keys differ.
func radixSort(rows []keyedRow[uint64]) []keyedRow[uint64] {
	if len(rows) < 2 {
		return rows
	}
	var counts [8][256]int
	for _, r := range rows {
		for d := range counts {
			counts[d][byte(r.key>>(8*d))]++
		}
	}
	buf := make([]keyedRow[uint64], len(rows))
	for d := range counts {
		c := &counts[d]
		if c[byte(rows[0].key>>(8*d))] == len(rows) {
			continue
		}
		at := 0
		for b, n := range c {
			c[b], at = at, at+n
		}
		for _, r := range rows {
			b := byte(r.key >> (8 * d))
			buf[c[b]] = r
			c[b]++
		}
		rows, buf = buf, rows
	}
	return rows
}

// finishOrder takes rows ordered by (leading key, row id), orders each run of
// equal leading keys by rest — the comparator of the other keys, if any —
// and returns the row ids. The row id breaks the last ties, so the unstable
// sort of a run gives the stable result.
func finishOrder[K comparable](rows []keyedRow[K], store []*vec.Vector, rest rowCmp) []int32 {
	if rest != nil {
		byRest := func(a, b keyedRow[K]) int {
			if c := rest(store, int(a.row), store, int(b.row)); c != 0 {
				return c
			}
			return cmp.Compare(a.row, b.row)
		}
		for lo := 0; lo < len(rows); {
			hi := lo + 1
			for hi < len(rows) && rows[hi].key == rows[lo].key {
				hi++
			}
			if hi-lo > 1 {
				slices.SortFunc(rows[lo:hi], byRest)
			}
			lo = hi
		}
	}
	perm := make([]int32, len(rows))
	for i, r := range rows {
		perm[i] = r.row
	}
	return perm
}

// Close implements Operator.
func (s *Sort) Close() { s.Child.Close() }

// TopN keeps the first N rows of the sorted order in exactly N typed slots
// under a heap of slot ids whose root is the worst kept row. Once the heap
// is full, a batch is first filtered by one typed loop over the leading key
// against that row's (the cut-off); only the survivors are compared in full,
// and a winner overwrites the evicted slot in place. Ties go to the earlier
// arrival, so TopN(n) emits exactly the first n rows of the stable Sort.
type TopN struct {
	Child Operator
	Keys  []SortKey
	N     int

	ctx      *Ctx
	slots    []*vec.Vector // at most N rows
	arrived  []int64       // per slot: arrival number of the row it holds
	arrivals int64
	heap     []int32 // slot ids, worst kept row at the root
	cmp      rowCmp
	cand     []int32 // scratch: cut-off survivors
	tail     []int32 // scratch: identity selection of the batch that filled the last slot
	out      *vec.Batch
	built    bool
	emitAt   int
}

// NewTopN builds a top-N operator.
func NewTopN(child Operator, keys []SortKey, n int) *TopN {
	return &TopN{Child: child, Keys: keys, N: n}
}

// Kinds implements Operator.
func (t *TopN) Kinds() []types.Kind { return t.Child.Kinds() }

// Open implements Operator.
func (t *TopN) Open(ctx *Ctx) error {
	if len(t.Keys) == 0 {
		return errNoSortKeys
	}
	t.ctx = ctx
	t.built = false
	t.emitAt = 0
	t.arrivals = 0
	t.arrived = t.arrived[:0]
	t.heap = t.heap[:0]
	kinds := t.Child.Kinds()
	var err error
	if t.cmp, err = newRowCmp(kinds, t.Keys); err != nil {
		return err
	}
	size := min(max(t.N, 0), ctx.vecSize()) // a small N needs no full vectors
	t.slots = make([]*vec.Vector, len(kinds))
	for i, k := range kinds {
		t.slots[i] = vec.New(k, size)
	}
	t.out = vec.NewBatch(kinds, size)
	return t.Child.Open(ctx)
}

// Next implements Operator.
func (t *TopN) Next() (*vec.Batch, error) {
	if !t.built {
		if t.N > 0 {
			if err := t.consume(); err != nil {
				return nil, err
			}
		}
		// The heap holds every kept slot once: sorted, it is the output order.
		slices.SortFunc(t.heap, t.order)
		t.built = true
	}
	if t.emitAt >= len(t.heap) {
		return nil, nil
	}
	if err := t.ctx.poll(); err != nil {
		return nil, err
	}
	n := min(t.ctx.vecSize(), len(t.heap)-t.emitAt)
	gatherRows(t.out, t.slots, t.heap[t.emitAt:t.emitAt+n])
	t.emitAt += n
	return t.out, nil
}

// order is the output order of two slots: the keys, then arrival.
func (t *TopN) order(a, b int32) int {
	if c := t.cmp(t.slots, int(a), t.slots, int(b)); c != 0 {
		return c
	}
	return cmp.Compare(t.arrived[a], t.arrived[b])
}

func (t *TopN) consume() error {
	for {
		if err := t.ctx.poll(); err != nil {
			return err
		}
		b, err := t.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if err := t.consumeBatch(b); err != nil {
			return err
		}
	}
}

func (t *TopN) consumeBatch(b *vec.Batch) error {
	rows := b.Rows()
	if rows == 0 {
		return nil
	}
	sel := b.Sel
	if fill := min(t.N-len(t.heap), rows); fill > 0 {
		// Slots are charged as they are first filled: at most N rows' worth.
		filled := *b
		if sel != nil {
			filled.Sel = sel[:fill]
		} else {
			filled.ForceLen(fill)
		}
		if err := t.ctx.charge(&filled); err != nil {
			return err
		}
		for i := 0; i < fill; i++ {
			t.fillSlot(b, b.RowIndex(i))
		}
		if fill == rows {
			return nil
		}
		if sel == nil {
			t.tail = vec.Identity(t.tail, rows)
			sel = t.tail
		}
		sel = sel[fill:]
	}
	for _, p := range t.candidates(b, sel) {
		worst := t.heap[0]
		if t.cmp(b.Vecs, int(p), t.slots, int(worst)) >= 0 {
			continue // not before the worst kept row; on a tie the earlier one stays
		}
		for c, v := range t.slots {
			v.CopyRow(int(worst), b.Vecs[c], int(p))
		}
		t.arrived[worst] = t.arrivals
		t.arrivals++
		t.siftDown()
	}
	return nil
}

// fillSlot copies physical row p of b into a fresh slot and pushes it.
func (t *TopN) fillSlot(b *vec.Batch, p int) {
	slot := int32(len(t.heap))
	for c, v := range t.slots {
		v.AppendRow(b.Vecs[c], p)
	}
	t.arrived = append(t.arrived, t.arrivals)
	t.arrivals++
	t.heap = append(t.heap, slot)
	// Sift up.
	for i := len(t.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if t.order(t.heap[i], t.heap[parent]) <= 0 {
			break
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

// siftDown restores the heap after the root slot's row was replaced.
func (t *TopN) siftDown() {
	h := t.heap
	for i := 0; ; {
		worst := i
		for k := 2*i + 1; k <= 2*i+2 && k < len(h); k++ {
			if t.order(h[k], h[worst]) > 0 {
				worst = k
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// candidates is the cut-off filter: the positions of sel (all of b when nil)
// whose leading key does not sort after the worst kept row's. It may keep a
// row the full comparison then rejects (an unordered float), never drop one
// that belongs.
func (t *TopN) candidates(b *vec.Batch, sel []int32) []int32 {
	k := t.Keys[0]
	v, cut, worst, n := b.Vecs[k.Col], t.slots[k.Col], t.heap[0], b.Full()
	switch v.Kind {
	case types.KindInt32, types.KindDate:
		t.cand = notAfter(t.cand, v.I32, cut.I32[worst], k.Desc, sel, n)
	case types.KindInt64:
		t.cand = notAfter(t.cand, v.I64, cut.I64[worst], k.Desc, sel, n)
	case types.KindFloat64:
		t.cand = notAfter(t.cand, v.F64, cut.F64[worst], k.Desc, sel, n)
	case types.KindString:
		t.cand = notAfter(t.cand, v.Str, cut.Str[worst], k.Desc, sel, n)
	default:
		// BOOLEAN: two values cut nothing off worth a loop of its own.
		if sel != nil {
			return sel
		}
		t.cand = vec.Identity(t.cand, n)
	}
	return t.cand
}

// notAfter selects the positions whose value is not after c in key order.
// The negated comparison lets NaN through on either side.
func notAfter[T int32 | int64 | float64 | string](dst []int32, a []T, c T, desc bool, sel []int32, n int) []int32 {
	dst = dst[:0]
	switch {
	case sel == nil && !desc:
		for i := 0; i < n; i++ {
			if !(a[i] > c) {
				dst = append(dst, int32(i))
			}
		}
	case sel == nil:
		for i := 0; i < n; i++ {
			if !(a[i] < c) {
				dst = append(dst, int32(i))
			}
		}
	case !desc:
		for _, i := range sel {
			if !(a[i] > c) {
				dst = append(dst, i)
			}
		}
	default:
		for _, i := range sel {
			if !(a[i] < c) {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// Close implements Operator.
func (t *TopN) Close() { t.Child.Close() }
