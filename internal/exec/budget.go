package exec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// ErrBudget reports that a query tried to materialize more than its memory
// budget allows. Pipelined operators are exempt — only the materializing
// ones (sort stores, hash-join builds, aggregation tables) charge, because
// they are what actually accumulates with input size.
var ErrBudget = errors.New("exec: query memory budget exceeded")

// MemBudget is a per-query cap on materialized bytes, shared by every
// operator (across all parallel workers) of one query. A nil budget or a
// zero limit means unlimited.
type MemBudget struct {
	limit int64
	used  atomic.Int64
}

// NewMemBudget creates a budget of limit bytes (<= 0: unlimited).
func NewMemBudget(limit int64) *MemBudget { return &MemBudget{limit: limit} }

// Charge records n more materialized bytes and fails when the total passes
// the limit. Estimates, not allocations: close enough to stop a runaway
// sort or join build long before the process is at risk.
func (m *MemBudget) Charge(n int64) error {
	if m == nil || m.limit <= 0 {
		return nil
	}
	if used := m.used.Add(n); used > m.limit {
		return fmt.Errorf("%w: %d bytes materialized, limit %d", ErrBudget, used, m.limit)
	}
	return nil
}

// Used reports the bytes charged so far.
func (m *MemBudget) Used() int64 {
	if m == nil {
		return 0
	}
	return m.used.Load()
}

// Limit reports the configured cap (0 = unlimited).
func (m *MemBudget) Limit() int64 {
	if m == nil {
		return 0
	}
	return m.limit
}

// charge bills the selected rows of b against the query budget.
func (c *Ctx) charge(b *vec.Batch) error {
	if c.Budget == nil {
		return nil
	}
	return c.Budget.Charge(BatchBytes(b))
}

// BatchBytes estimates the heap footprint of the selected rows of b.
func BatchBytes(b *vec.Batch) int64 {
	rows := int64(b.Rows())
	var total int64
	for _, v := range b.Vecs {
		switch v.Kind {
		case types.KindBool:
			total += rows
		case types.KindInt32, types.KindDate:
			total += rows * 4
		case types.KindString:
			total += rows * 16 // string header
			for i := 0; i < int(rows); i++ {
				total += int64(len(v.Str[b.RowIndex(i)]))
			}
		default:
			total += rows * 8
		}
	}
	return total
}
