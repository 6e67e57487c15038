// Package scanspec holds the one description of a table scan — the ScanSpec —
// that the logical plan and the operator tree below it share.
// The binder creates a Spec per base table, the optimizer's range extraction
// replaces it, and from the cross compiler onward every representation holds
// the same *Spec by pointer: nothing downstream copies a range, a window or
// a column list, so a new scan annotation is a field here plus the pass that
// fills it in. Which columns a scan reads is not a spec field: the rewriter
// prunes each scan's own physical list.
//
// A Spec is immutable once a plan node points at it. A pass that changes a
// scan copies the struct, edits the copy and swaps the pointer.
package scanspec

import (
	"fmt"
	"strings"

	"vectorwise/internal/types"
)

// Range is a sargable restriction of one scan column (a position in
// Spec.Cols) to the inclusive interval [Lo, Hi]; a nil side is open. Storage
// uses ranges to skip row groups by their min/max summaries and to drop rows
// of dictionary-coded strings on their codes — the Select the range came
// from stays in the plan, so results remain exact.
type Range struct {
	Col    int
	Lo, Hi *types.Value
}

// String renders the range for plan display.
func (r Range) String() string { return types.FormatRange("$", r.Col, r.Lo, r.Hi) }

// Window is the contiguous row-group interval [Lo, Hi) of Total groups that a
// range scan over a clustered column needs to touch. It is a compile-time
// hint for plan display and for capping the parallel degree: every scan
// re-derives the exact window inside its own snapshot at open time, so
// concurrent deltas and appends can make it stale, never wrong.
type Window struct {
	Lo, Hi, Total int
}

// Suffix renders the window as it trails a scan line (", groups=[lo,hi)/n"),
// or nothing for a nil window.
func (w *Window) Suffix() string {
	if w == nil {
		return ""
	}
	return fmt.Sprintf(", groups=[%d,%d)/%d", w.Lo, w.Hi, w.Total)
}

// Spec describes one scan of a base table.
type Spec struct {
	Table     string
	Structure string // "vectorwise" or "heap"
	// Cols is the logical schema the scan produces: all of the table's
	// columns, in table order, from the binder to physical.Build. NULLable
	// columns are still single columns here — the rewriter's NULL
	// decomposition derives the physical list (value columns, then the $null
	// indicators of the NULLable ones) from this schema, its column pruning
	// drops from that list what no operator reads, and physical.Build
	// resolves what is left to storage positions.
	Cols *types.Schema
	// Ranges are the sargable bounds for row-group skipping and filtering on
	// dictionary codes (vectorwise scans only). Range.Col is a position in
	// Cols; the physical list may lack columns before it (the rewriter drops
	// the value columns no operator reads), so the physical plan finds the
	// column by name.
	Ranges []Range
	// Window is the clustered group interval implied by Ranges, when a range
	// column is clustered (nil otherwise).
	Window *Window
	// RID asks the scan to produce, after Cols, each row's id as a BIGINT NOT
	// NULL column named RIDName. On a vectorwise table it is the row's
	// position in the transaction's table image — what txn.UpdateAt and
	// DeleteAt take — filled by exec.MorselScan from the start position every
	// positional batch source returns; on a heap table it is the row's packed
	// rowengine.RowID. The binder sets it on the scan that finds the rows of an
	// UPDATE or DELETE. The id is not stored, so it is no member of Cols and
	// no pass resolves it against storage. RID scans are serial.
	RID bool
}

// RIDName names the row-id pseudo-column. No SQL identifier starts with
// '$', and the binder keeps the column out of scope, so no statement can
// name it.
const RIDName = "$rid"

// Schema is what the scan produces: Cols, then the row-id column of a RID
// scan.
func (s *Spec) Schema() *types.Schema {
	if !s.RID {
		return s.Cols
	}
	out := &types.Schema{Cols: make([]types.Column, 0, s.Cols.Len()+1)}
	out.Cols = append(out.Cols, s.Cols.Cols...)
	out.Cols = append(out.Cols, types.Col(RIDName, types.Int64))
	return out
}

// Suffix renders the range and window annotations as they trail a scan line
// in the logical plan printer (and on a physical scan not yet resolved).
func (s *Spec) Suffix() string {
	if len(s.Ranges) == 0 {
		return s.Window.Suffix()
	}
	parts := make([]string, len(s.Ranges))
	for i, r := range s.Ranges {
		parts[i] = r.String()
	}
	return ", ranges=[" + strings.Join(parts, ", ") + "]" + s.Window.Suffix()
}
