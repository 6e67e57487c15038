// Package vec provides the core data structures of vectorized execution:
// typed value vectors, selection vectors and batches. A batch of ~1024
// values per column is the unit of work flowing between operators — large
// enough to amortize interpretation overhead, small enough to stay resident
// in the CPU cache. This is the central design of X100 [Boncz, Zukowski,
// Nes, CIDR 2005] that the paper's first claim (">10x faster than
// conventional engines") rests on.
package vec

import (
	"fmt"

	"vectorwise/internal/types"
)

// DefaultSize is the default number of values per vector. X100's experiments
// put the optimum around 1K values; experiment E2 reproduces that sweep.
const DefaultSize = 1024

// Vector is a fixed-capacity, variable-length array of values of one
// physical kind. Only the slice matching Kind is non-nil. DATE values live
// in I32, making all date primitives plain int32 loops.
type Vector struct {
	Kind types.Kind
	n    int

	Bool []bool
	I32  []int32
	I64  []int64
	F64  []float64
	Str  []string
}

// New allocates a vector of the given kind with capacity capHint.
func New(kind types.Kind, capHint int) *Vector {
	v := &Vector{Kind: kind}
	switch kind {
	case types.KindBool:
		v.Bool = make([]bool, capHint)
	case types.KindInt32, types.KindDate:
		v.I32 = make([]int32, capHint)
	case types.KindInt64:
		v.I64 = make([]int64, capHint)
	case types.KindFloat64:
		v.F64 = make([]float64, capHint)
	case types.KindString:
		v.Str = make([]string, capHint)
	default:
		panic(fmt.Sprintf("vec: cannot allocate vector of kind %v", kind))
	}
	return v
}

// Len returns the number of live values.
func (v *Vector) Len() int { return v.n }

// SetLen sets the number of live values; it must not exceed capacity.
func (v *Vector) SetLen(n int) {
	if n > v.Cap() {
		panic(fmt.Sprintf("vec: SetLen(%d) beyond capacity %d", n, v.Cap()))
	}
	v.n = n
}

// Cap returns the allocated capacity.
func (v *Vector) Cap() int {
	switch v.Kind {
	case types.KindBool:
		return len(v.Bool)
	case types.KindInt32, types.KindDate:
		return len(v.I32)
	case types.KindInt64:
		return len(v.I64)
	case types.KindFloat64:
		return len(v.F64)
	case types.KindString:
		return len(v.Str)
	default:
		return 0
	}
}

// Grow ensures capacity of at least n, preserving contents.
func (v *Vector) Grow(n int) {
	if v.Cap() >= n {
		return
	}
	switch v.Kind {
	case types.KindBool:
		nb := make([]bool, n)
		copy(nb, v.Bool)
		v.Bool = nb
	case types.KindInt32, types.KindDate:
		ni := make([]int32, n)
		copy(ni, v.I32)
		v.I32 = ni
	case types.KindInt64:
		ni := make([]int64, n)
		copy(ni, v.I64)
		v.I64 = ni
	case types.KindFloat64:
		nf := make([]float64, n)
		copy(nf, v.F64)
		v.F64 = nf
	case types.KindString:
		ns := make([]string, n)
		copy(ns, v.Str)
		v.Str = ns
	}
}

// Get boxes value i; for tests, result rendering and slow paths only.
func (v *Vector) Get(i int) types.Value {
	switch v.Kind {
	case types.KindBool:
		return types.NewBool(v.Bool[i])
	case types.KindInt32:
		return types.NewInt32(v.I32[i])
	case types.KindDate:
		return types.NewDate(v.I32[i])
	case types.KindInt64:
		return types.NewInt64(v.I64[i])
	case types.KindFloat64:
		return types.NewFloat64(v.F64[i])
	case types.KindString:
		return types.NewString(v.Str[i])
	default:
		panic("vec: Get on invalid vector")
	}
}

// Set stores boxed value val at position i; slow path (loads, literals).
func (v *Vector) Set(i int, val types.Value) {
	switch v.Kind {
	case types.KindBool:
		v.Bool[i] = val.Bool()
	case types.KindInt32, types.KindDate:
		v.I32[i] = int32(val.I64)
	case types.KindInt64:
		v.I64[i] = val.I64
	case types.KindFloat64:
		if val.Kind == types.KindFloat64 {
			v.F64[i] = val.F64
		} else {
			v.F64[i] = val.AsFloat()
		}
	case types.KindString:
		v.Str[i] = val.Str
	default:
		panic("vec: Set on invalid vector")
	}
}

// Reserve makes room for extra more values after the live ones. Capacity at
// least doubles when it grows, so a store built by repeated appends copies
// each value about once; only the live values survive a reallocation.
func (v *Vector) Reserve(extra int) {
	if v.Cap()-v.n >= extra {
		return
	}
	switch v.Kind {
	case types.KindBool:
		v.Bool = reserve(v.Bool, v.n, extra)
	case types.KindInt32, types.KindDate:
		v.I32 = reserve(v.I32, v.n, extra)
	case types.KindInt64:
		v.I64 = reserve(v.I64, v.n, extra)
	case types.KindFloat64:
		v.F64 = reserve(v.F64, v.n, extra)
	case types.KindString:
		v.Str = reserve(v.Str, v.n, extra)
	}
}

// reserve reallocates s to hold its n live values plus extra, or twice n if
// that is more; the slice's length stays its capacity, as everywhere in
// Vector.
func reserve[T any](s []T, n, extra int) []T {
	s = append(s[:n:n], make([]T, max(extra, n))...)
	return s[:cap(s)]
}

// Append adds a boxed value at the end, growing if needed; slow path.
func (v *Vector) Append(val types.Value) {
	v.Reserve(1)
	v.Set(v.n, val)
	v.n++
}

// CopyRow stores src[j] at position i: the typed single-value copy of
// operators that keep rows in slots (top-N).
func (v *Vector) CopyRow(i int, src *Vector, j int) {
	switch v.Kind {
	case types.KindBool:
		v.Bool[i] = src.Bool[j]
	case types.KindInt32, types.KindDate:
		v.I32[i] = src.I32[j]
	case types.KindInt64:
		v.I64[i] = src.I64[j]
	case types.KindFloat64:
		v.F64[i] = src.F64[j]
	case types.KindString:
		v.Str[i] = src.Str[j]
	}
}

// AppendRow appends src[j] (group keys, merged streams).
func (v *Vector) AppendRow(src *Vector, j int) {
	v.Reserve(1)
	v.CopyRow(v.n, src, j)
	v.n++
}

// Fill sets positions [0,n) to the boxed value and the length to n; used to
// materialize constant vectors.
func (v *Vector) Fill(val types.Value, n int) {
	v.Grow(n)
	switch v.Kind {
	case types.KindBool:
		b := val.Bool()
		for i := 0; i < n; i++ {
			v.Bool[i] = b
		}
	case types.KindInt32, types.KindDate:
		x := int32(val.I64)
		for i := 0; i < n; i++ {
			v.I32[i] = x
		}
	case types.KindInt64:
		for i := 0; i < n; i++ {
			v.I64[i] = val.I64
		}
	case types.KindFloat64:
		f := val.F64
		if val.Kind != types.KindFloat64 {
			f = val.AsFloat()
		}
		for i := 0; i < n; i++ {
			v.F64[i] = f
		}
	case types.KindString:
		for i := 0; i < n; i++ {
			v.Str[i] = val.Str
		}
	}
	v.n = n
}

// CopyFrom copies src[sel[i]] (or src[i] when sel is nil) into v[0..], sets
// v's length and returns it. This is the "materialize through selection
// vector" kernel used when an operator needs densely packed output.
func (v *Vector) CopyFrom(src *Vector, sel []int32, n int) *Vector {
	v.Grow(n)
	if sel == nil {
		switch v.Kind {
		case types.KindBool:
			copy(v.Bool[:n], src.Bool[:n])
		case types.KindInt32, types.KindDate:
			copy(v.I32[:n], src.I32[:n])
		case types.KindInt64:
			copy(v.I64[:n], src.I64[:n])
		case types.KindFloat64:
			copy(v.F64[:n], src.F64[:n])
		case types.KindString:
			copy(v.Str[:n], src.Str[:n])
		}
	} else {
		switch v.Kind {
		case types.KindBool:
			for i := 0; i < n; i++ {
				v.Bool[i] = src.Bool[sel[i]]
			}
		case types.KindInt32, types.KindDate:
			for i := 0; i < n; i++ {
				v.I32[i] = src.I32[sel[i]]
			}
		case types.KindInt64:
			for i := 0; i < n; i++ {
				v.I64[i] = src.I64[sel[i]]
			}
		case types.KindFloat64:
			for i := 0; i < n; i++ {
				v.F64[i] = src.F64[sel[i]]
			}
		case types.KindString:
			for i := 0; i < n; i++ {
				v.Str[i] = src.Str[sel[i]]
			}
		}
	}
	v.n = n
	return v
}

// GatherFrom appends src[idx[i]] for each index, used by join result
// construction (fetch build-side columns by match row id).
func (v *Vector) GatherFrom(src *Vector, idx []int32) {
	base := v.n
	n := len(idx)
	v.Reserve(n)
	switch v.Kind {
	case types.KindBool:
		for i, j := range idx {
			v.Bool[base+i] = src.Bool[j]
		}
	case types.KindInt32, types.KindDate:
		for i, j := range idx {
			v.I32[base+i] = src.I32[j]
		}
	case types.KindInt64:
		for i, j := range idx {
			v.I64[base+i] = src.I64[j]
		}
	case types.KindFloat64:
		for i, j := range idx {
			v.F64[base+i] = src.F64[j]
		}
	case types.KindString:
		for i, j := range idx {
			v.Str[base+i] = src.Str[j]
		}
	}
	v.n = base + n
}

// AppendVector appends all live values of src.
func (v *Vector) AppendVector(src *Vector) {
	base := v.n
	n := src.n
	v.Reserve(n)
	switch v.Kind {
	case types.KindBool:
		copy(v.Bool[base:], src.Bool[:n])
	case types.KindInt32, types.KindDate:
		copy(v.I32[base:], src.I32[:n])
	case types.KindInt64:
		copy(v.I64[base:], src.I64[:n])
	case types.KindFloat64:
		copy(v.F64[base:], src.F64[:n])
	case types.KindString:
		copy(v.Str[base:], src.Str[:n])
	}
	v.n = base + n
}

// Reset truncates the vector to zero length without releasing storage.
func (v *Vector) Reset() { v.n = 0 }

// String renders a short debug form.
func (v *Vector) String() string {
	s := fmt.Sprintf("%v[%d]{", v.Kind, v.n)
	for i := 0; i < v.n && i < 8; i++ {
		if i > 0 {
			s += " "
		}
		s += v.Get(i).String()
	}
	if v.n > 8 {
		s += " …"
	}
	return s + "}"
}
