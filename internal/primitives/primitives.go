// Package primitives is the vectorized primitive library of the X100-style
// kernel: tight loops over typed slices, optionally driven by a selection
// vector, with no per-value interpretation, allocation or boxing.
//
// The arithmetic primitives come in two variants:
//
//   - unchecked map primitives (the fast path),
//   - vectorized *checked* primitives that detect division-by-zero and
//     integer overflow with branch-light flag accumulation (the "special
//     algorithms in the kernel" the paper says had to be devised).
//
// Every primitive is NULL-oblivious: a NULLable column reaches the kernel as
// a value column plus a boolean indicator column.
package primitives

// Num constrains the numeric element types the kernel supports.
type Num interface {
	~int32 | ~int64 | ~float64
}

// Ordered constrains element types with a total order (comparisons,
// min/max, sort keys).
type Ordered interface {
	~int32 | ~int64 | ~float64 | ~string
}

// Integer constrains the integral element types (overflow checking applies
// only to these).
type Integer interface {
	~int32 | ~int64
}
