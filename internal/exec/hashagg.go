package exec

import (
	"fmt"
	"slices"

	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// AggFn enumerates aggregate functions.
type AggFn uint8

// The aggregate functions. Their kernels are NULL-oblivious: an aggregate
// over a NULLable column reads the column's values and skips the rows its
// BOOLEAN NULL indicator marks (AggSpec.Ind), so COUNT(col) is COUNT(*)
// over the rows whose indicator is false.
const (
	AggCount AggFn = iota // COUNT(*)
	AggSum
	AggMin
	AggMax
	AggAvg
	AggSumFloat // SUM in float64 over any numeric kind: a parallel AVG's partial sum
)

// String names the aggregate.
func (f AggFn) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggSumFloat:
		return "sum_float"
	default:
		return "agg?"
	}
}

// AggSpec is one aggregate over an input column (-1 for COUNT(*)). Ind, when
// not zero, is one more than the position of a BOOLEAN indicator column:
// the aggregate skips every row where that column is true. The offset keeps
// the zero value meaning "no indicator", since column 0 can be one.
type AggSpec struct {
	Fn  AggFn
	Col int
	Ind int
}

// WithInd returns a skipping the rows where column ind is true; a negative
// ind skips none.
func (a AggSpec) WithInd(ind int) AggSpec {
	a.Ind = ind + 1
	return a
}

// IndCol returns the indicator column, or -1 when there is none.
func (a AggSpec) IndCol() int { return a.Ind - 1 }

// ResultKind returns the aggregate's output kind over the given input kind.
func (a AggSpec) ResultKind(in []types.Kind) (types.Kind, error) {
	if c := a.IndCol(); c >= 0 && in[c] != types.KindBool {
		return 0, fmt.Errorf("exec: %v skipping rows by a %v column", a.Fn, in[c])
	}
	switch a.Fn {
	case AggCount:
		return types.KindInt64, nil
	case AggAvg, AggSumFloat:
		return types.KindFloat64, nil
	case AggSum:
		switch in[a.Col] {
		case types.KindInt32, types.KindInt64:
			return types.KindInt64, nil
		case types.KindFloat64:
			return types.KindFloat64, nil
		}
		return 0, fmt.Errorf("exec: sum over %v", in[a.Col])
	case AggMin, AggMax:
		return in[a.Col], nil
	}
	return 0, fmt.Errorf("exec: unknown aggregate")
}

// HashAgg groups its input by the group columns and computes aggregates;
// with no group columns it produces exactly one row (scalar aggregation),
// folding each vector straight into that row's state with the primitives
// that keep the running value in a register. Output: group columns, then
// aggregates, in declaration order.
type HashAgg struct {
	Child     Operator
	GroupCols []int
	Aggs      []AggSpec

	ctx     *Ctx
	kinds   []types.Kind
	inK     []types.Kind
	keys    []*vec.Vector // per-group key values
	hashes  []uint64      // per-group hash
	slots   []aggSlot     // open addressing, linear probing, at most half full
	mask    uint64
	states  []*aggState
	nGroups int
	nulls   []nullSel // one per indicator column a SUM, MIN, MAX or AVG skips by

	hashBuf  []uint64
	groupBuf []int32
	homeBuf  []aggSlot
	built    bool
	emitAt   int
	out      *vec.Batch
}

// aggSlot is one entry of the group table. The tag rejects nearly every
// non-matching probe without touching the group's keys, so a lookup costs
// one cache line of the table plus one of the keys.
type aggSlot struct {
	tag uint32 // upper half of the group's hash
	gid int32  // group id + 1; 0 marks an empty slot
}

type aggState struct {
	spec   AggSpec
	kind   types.Kind // result kind
	inK    types.Kind
	narrow int // index into HashAgg.nulls, or -1 to fold every row
	sumI   []int64
	sumF   []float64
	cnt    []int64
	mm     *vec.Vector
	seen   []bool
}

// nullSel narrows one batch to the rows whose indicator column is false:
// sel holds their positions and groups, parallel to sel, their groups. Every
// aggregate that skips by the column folds this one narrowing.
type nullSel struct {
	col    int
	sel    []int32
	groups []int32
}

// NewHashAgg builds an aggregation operator.
func NewHashAgg(child Operator, groupCols []int, aggs []AggSpec) (*HashAgg, error) {
	h := &HashAgg{Child: child, GroupCols: groupCols, Aggs: aggs}
	h.inK = child.Kinds()
	for _, g := range groupCols {
		h.kinds = append(h.kinds, h.inK[g])
	}
	for _, a := range aggs {
		k, err := a.ResultKind(h.inK)
		if err != nil {
			return nil, err
		}
		h.kinds = append(h.kinds, k)
	}
	return h, nil
}

// Kinds implements Operator.
func (h *HashAgg) Kinds() []types.Kind { return h.kinds }

// Open implements Operator.
func (h *HashAgg) Open(ctx *Ctx) error {
	h.ctx = ctx
	h.built = false
	h.emitAt = 0
	h.nGroups = 0
	h.keys = make([]*vec.Vector, len(h.GroupCols))
	for i, g := range h.GroupCols {
		h.keys[i] = vec.New(h.inK[g], 64)
	}
	h.hashes = h.hashes[:0]
	h.slots = make([]aggSlot, 1024)
	h.mask = uint64(len(h.slots) - 1)
	h.states = make([]*aggState, len(h.Aggs))
	h.nulls = h.nulls[:0]
	for i, a := range h.Aggs {
		k, _ := a.ResultKind(h.inK)
		st := &aggState{spec: a, kind: k, narrow: -1}
		if a.Col >= 0 {
			st.inK = h.inK[a.Col]
		}
		// A COUNT counts the false indicators without narrowing.
		if c := a.IndCol(); c >= 0 && a.Fn != AggCount {
			st.narrow = slices.IndexFunc(h.nulls, func(ns nullSel) bool { return ns.col == c })
			if st.narrow < 0 {
				st.narrow = len(h.nulls)
				h.nulls = append(h.nulls, nullSel{col: c})
			}
		}
		if a.Fn == AggMin || a.Fn == AggMax {
			st.mm = vec.New(k, 64)
		}
		h.states[i] = st
	}
	if len(h.GroupCols) == 0 {
		// The one group of a scalar aggregate exists even over no input.
		h.ensureGroups(1)
		h.nGroups = 1
	}
	h.out = vec.NewBatch(h.kinds, ctx.vecSize())
	return h.Child.Open(ctx)
}

// Next implements Operator.
func (h *HashAgg) Next() (*vec.Batch, error) {
	if !h.built {
		if err := h.consume(); err != nil {
			return nil, err
		}
		h.built = true
	}
	if h.emitAt >= h.nGroups {
		return nil, nil
	}
	if err := h.ctx.poll(); err != nil {
		return nil, err
	}
	n := h.ctx.vecSize()
	if rem := h.nGroups - h.emitAt; n > rem {
		n = rem
	}
	h.out.Reset()
	h.out.SetLen(n)
	lo, hi := h.emitAt, h.emitAt+n
	for c := range h.GroupCols {
		h.out.Vecs[c].CopyFrom(sliceVec(h.keys[c], lo, n), nil, n)
	}
	base := len(h.GroupCols)
	for ai, st := range h.states {
		ov := h.out.Vecs[base+ai]
		switch st.spec.Fn {
		case AggCount:
			copy(ov.I64, st.cnt[lo:hi])
		case AggSum, AggSumFloat:
			if st.kind == types.KindInt64 {
				copy(ov.I64, st.sumI[lo:hi])
			} else {
				copy(ov.F64, st.sumF[lo:hi])
			}
		case AggAvg:
			for i, cnt := range st.cnt[lo:hi] {
				if cnt > 0 {
					ov.F64[i] = st.sumF[lo+i] / float64(cnt)
				} else {
					ov.F64[i] = 0
				}
			}
		case AggMin, AggMax:
			ov.CopyFrom(sliceVec(st.mm, lo, n), nil, n)
		}
	}
	h.emitAt += n
	return h.out, nil
}

func sliceVec(v *vec.Vector, off, n int) *vec.Vector {
	out := vec.New(v.Kind, 0)
	switch v.Kind {
	case types.KindBool:
		out.Bool = v.Bool[off : off+n]
	case types.KindInt32, types.KindDate:
		out.I32 = v.I32[off : off+n]
	case types.KindInt64:
		out.I64 = v.I64[off : off+n]
	case types.KindFloat64:
		out.F64 = v.F64[off : off+n]
	case types.KindString:
		out.Str = v.Str[off : off+n]
	}
	out.SetLen(n)
	return out
}

// consume drains the child, building groups and folding aggregates.
func (h *HashAgg) consume() error {
	for {
		if err := h.ctx.poll(); err != nil {
			return err
		}
		b, err := h.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		rows := b.Rows()
		if rows == 0 {
			continue
		}
		if len(h.GroupCols) == 0 {
			if err := h.fold(nil, b); err != nil {
				return err
			}
			continue
		}
		if cap(h.hashBuf) < rows {
			h.hashBuf = make([]uint64, rows)
		}
		hv := h.hashBuf[:rows]
		if err := hashKeys(hv, b.Vecs, h.GroupCols, b.Sel, b.Full()); err != nil {
			return err
		}
		if cap(h.groupBuf) < rows {
			h.groupBuf = make([]int32, rows)
		}
		groups := h.groupBuf[:rows]
		prevGroups := h.nGroups
		if len(h.slots) < wideTable {
			for k, hash := range hv {
				groups[k] = h.findOrInsert(hash, b, int32(b.RowIndex(k)))
			}
		} else {
			h.findWide(hv, groups, b)
		}
		h.ensureGroups(h.nGroups)
		if grown := h.nGroups - prevGroups; grown > 0 && h.ctx.Budget != nil {
			// Aggregation memory grows with distinct groups, not input rows:
			// bill the new groups' key + state footprint.
			if err := h.ctx.Budget.Charge(int64(grown) * h.groupBytes()); err != nil {
				return err
			}
		}
		if err := h.fold(groups, b); err != nil {
			return err
		}
	}
}

// groupBytes estimates the per-group footprint: key values, the hash, the
// group's share of a table kept at most half full, and one state slot per
// aggregate.
func (h *HashAgg) groupBytes() int64 {
	n := int64(8 + 4*8)
	for _, g := range h.GroupCols {
		if h.inK[g] == types.KindString {
			n += 32
		} else {
			n += 8
		}
	}
	n += int64(len(h.Aggs)) * 24
	return n
}

// wideTable is the slot count (128 KB) from which a lookup is a cache miss
// more often than not.
const wideTable = 1 << 14

// findWide resolves a batch against a wide table. It first loads every
// row's home slot in a loop with nothing else in it, so the cache misses
// overlap; then resolves each row, probing on only when its home slot is not
// its group. A slot read before this batch's inserts still names the right
// group if it matches: groups never move.
func (h *HashAgg) findWide(hv []uint64, groups []int32, b *vec.Batch) {
	if cap(h.homeBuf) < len(hv) {
		h.homeBuf = make([]aggSlot, len(hv))
	}
	home := h.homeBuf[:len(hv)]
	for k, hash := range hv {
		home[k] = h.slots[hash&h.mask]
	}
	for k, hash := range hv {
		phys := int32(b.RowIndex(k))
		if s := home[k]; s.gid != 0 && s.tag == uint32(hash>>32) && h.groupKeyEq(int(s.gid-1), b, phys) {
			groups[k] = s.gid - 1
			continue
		}
		groups[k] = h.findOrInsert(hash, b, phys)
	}
}

func (h *HashAgg) findOrInsert(hash uint64, b *vec.Batch, phys int32) int32 {
	tag := uint32(hash >> 32)
	i := hash & h.mask
	for ; h.slots[i].gid != 0; i = (i + 1) & h.mask {
		if s := h.slots[i]; s.tag == tag && h.groupKeyEq(int(s.gid-1), b, phys) {
			return s.gid - 1
		}
	}
	// New group.
	gid := int32(h.nGroups)
	h.nGroups++
	h.slots[i] = aggSlot{tag: tag, gid: gid + 1}
	for c, gc := range h.GroupCols {
		h.keys[c].AppendRow(b.Vecs[gc], int(phys))
	}
	h.hashes = append(reserveCap(h.hashes, 1), hash)
	if uint64(h.nGroups)*2 > h.mask {
		h.rehash()
	}
	return gid
}

func (h *HashAgg) groupKeyEq(g int, b *vec.Batch, phys int32) bool {
	for c, gc := range h.GroupCols {
		kv := h.keys[c]
		iv := b.Vecs[gc]
		switch kv.Kind {
		case types.KindBool:
			if kv.Bool[g] != iv.Bool[phys] {
				return false
			}
		case types.KindInt32, types.KindDate:
			if kv.I32[g] != iv.I32[phys] {
				return false
			}
		case types.KindInt64:
			if kv.I64[g] != iv.I64[phys] {
				return false
			}
		case types.KindFloat64:
			// Equal as types.CompareFloat64 has it, like ORDER BY: -0 is +0
			// and NaN is NaN.
			if x, y := kv.F64[g], iv.F64[phys]; x != y && (x == x || y == y) {
				return false
			}
		case types.KindString:
			if kv.Str[g] != iv.Str[phys] {
				return false
			}
		}
	}
	return true
}

func (h *HashAgg) rehash() {
	h.slots = make([]aggSlot, 4*len(h.slots))
	h.mask = uint64(len(h.slots) - 1)
	for g, hash := range h.hashes {
		i := hash & h.mask
		for h.slots[i].gid != 0 {
			i = (i + 1) & h.mask
		}
		h.slots[i] = aggSlot{tag: uint32(hash >> 32), gid: int32(g) + 1}
	}
}

// ensureGroups grows every aggregate state to hold n groups; called once per
// batch, after its new groups are known and before its rows are folded.
func (h *HashAgg) ensureGroups(n int) {
	for _, st := range h.states {
		switch st.spec.Fn {
		case AggCount:
			st.cnt = growZero(st.cnt, n)
		case AggSum, AggSumFloat:
			if st.kind == types.KindInt64 {
				st.sumI = growZero(st.sumI, n)
			} else {
				st.sumF = growZero(st.sumF, n)
			}
		case AggAvg:
			st.sumF = growZero(st.sumF, n)
			st.cnt = growZero(st.cnt, n)
		case AggMin, AggMax:
			st.mm.Reserve(n - st.mm.Len())
			st.mm.SetLen(n)
			st.seen = growZero(st.seen, n)
		}
	}
}

// reserveCap returns s with room for extra more elements; capacity at least
// doubles when it has to grow, and the spare part is zero.
func reserveCap[T any](s []T, extra int) []T {
	if cap(s)-len(s) >= extra {
		return s
	}
	ns := make([]T, len(s), max(len(s)+extra, 2*cap(s)))
	copy(ns, s)
	return ns
}

// growZero extends s with zero values to length n. Nothing writes past the
// length of a state slice, so its spare capacity is still zero.
func growZero[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return reserveCap(s, n-len(s))[:n]
}

// fold applies one batch's rows to the aggregate states. groups is parallel
// to the batch's logical rows; nil folds every row into the one group of a
// scalar aggregate, whose running values the "from" primitives keep in
// registers for the whole vector. An aggregate with an indicator folds only
// the rows the indicator does not mark.
func (h *HashAgg) fold(groups []int32, b *vec.Batch) error {
	for i := range h.nulls {
		ns := &h.nulls[i]
		ns.sel, ns.groups = primitives.SelFalseGrouped(ns.sel, ns.groups, b.Vecs[ns.col].Bool, groups, b.Sel, b.Full())
	}
	for _, st := range h.states {
		groups, sel, n := groups, b.Sel, b.Full()
		if st.narrow >= 0 {
			groups, sel = h.nulls[st.narrow].groups, h.nulls[st.narrow].sel
		}
		var v *vec.Vector
		if st.spec.Col >= 0 {
			v = b.Vecs[st.spec.Col]
		}
		switch st.spec.Fn {
		case AggCount:
			if c := st.spec.IndCol(); c >= 0 {
				countFalseInto(st.cnt, groups, b.Vecs[c].Bool, sel, n)
			} else {
				countInto(st.cnt, groups, sel, n)
			}
		case AggSum:
			var err error
			switch st.inK {
			case types.KindInt32:
				err = sumIntInto(st.sumI, groups, v.I32, sel, n)
			case types.KindInt64:
				err = sumIntInto(st.sumI, groups, v.I64, sel, n)
			case types.KindFloat64:
				sumFloatInto(st.sumF, groups, v.F64, sel, n)
			}
			if err != nil {
				return fmt.Errorf("exec: %v: %w", st.spec.Fn, err)
			}
		case AggAvg, AggSumFloat:
			if st.spec.Fn == AggAvg {
				countInto(st.cnt, groups, sel, n)
			}
			switch st.inK {
			case types.KindInt32:
				sumFloatInto(st.sumF, groups, v.I32, sel, n)
			case types.KindInt64:
				sumFloatInto(st.sumF, groups, v.I64, sel, n)
			case types.KindFloat64:
				sumFloatInto(st.sumF, groups, v.F64, sel, n)
			}
		case AggMin, AggMax:
			isMin := st.spec.Fn == AggMin
			switch st.inK {
			case types.KindInt32, types.KindDate:
				minMaxInto(st.mm.I32, st.seen, groups, v.I32, sel, n, isMin)
			case types.KindInt64:
				minMaxInto(st.mm.I64, st.seen, groups, v.I64, sel, n, isMin)
			case types.KindFloat64:
				minMaxInto(st.mm.F64, st.seen, groups, v.F64, sel, n, isMin)
			case types.KindString:
				minMaxInto(st.mm.Str, st.seen, groups, v.Str, sel, n, isMin)
			case types.KindBool:
				minMaxBoolInto(st.mm.Bool, st.seen, groups, v.Bool, sel, n, isMin)
			}
		}
	}
	return nil
}

// countInto adds each selected row to its group's count (nil groups: the
// one group of a scalar aggregate).
func countInto(acc []int64, groups []int32, sel []int32, n int) {
	if groups == nil {
		if sel != nil {
			n = len(sel)
		}
		acc[0] += int64(n)
		return
	}
	primitives.CountGrouped(acc, groups, sel, n)
}

// countFalseInto adds each selected row whose indicator is false to its
// group's count.
func countFalseInto(acc []int64, groups []int32, ind []bool, sel []int32, n int) {
	if groups == nil {
		acc[0] += primitives.CountFalse(ind, sel, n)
		return
	}
	primitives.CountFalseGrouped(acc, groups, ind, sel, n)
}

// sumIntInto adds integer values to their groups' checked int64 sums.
func sumIntInto[T primitives.Integer](acc []int64, groups []int32, a []T, sel []int32, n int) error {
	if groups == nil {
		var err error
		acc[0], err = primitives.SumFrom(acc[0], a, sel, n)
		return err
	}
	return primitives.SumGrouped(acc, groups, a, sel, n)
}

// sumFloatInto adds values to their groups' float64 sums.
func sumFloatInto[T primitives.Num](acc []float64, groups []int32, a []T, sel []int32, n int) {
	if groups == nil {
		acc[0] = primitives.SumFloatFrom(acc[0], a, sel, n)
		return
	}
	primitives.SumFloatGrouped(acc, groups, a, sel, n)
}

// minMaxInto folds values into their groups' minima or maxima.
func minMaxInto[T primitives.Ordered](acc []T, seen []bool, groups []int32, a []T, sel []int32, n int, isMin bool) {
	switch {
	case groups == nil && isMin:
		acc[0], seen[0] = primitives.MinFrom(acc[0], seen[0], a, sel, n)
	case groups == nil:
		acc[0], seen[0] = primitives.MaxFrom(acc[0], seen[0], a, sel, n)
	case isMin:
		primitives.MinGrouped(acc, seen, groups, a, sel, n)
	default:
		primitives.MaxGrouped(acc, seen, groups, a, sel, n)
	}
}

// minMaxBoolInto folds booleans into their groups' minima or maxima, false
// ordering before true.
func minMaxBoolInto(acc, seen []bool, groups []int32, a []bool, sel []int32, n int, isMin bool) {
	if sel != nil {
		n = len(sel)
	}
	for k := range n {
		i, g := k, 0
		if sel != nil {
			i = int(sel[k])
		}
		if groups != nil {
			g = int(groups[k])
		}
		switch v := a[i]; {
		case !seen[g]:
			acc[g], seen[g] = v, true
		case isMin:
			acc[g] = acc[g] && v
		default:
			acc[g] = acc[g] || v
		}
	}
}

// Close implements Operator.
func (h *HashAgg) Close() { h.Child.Close() }
