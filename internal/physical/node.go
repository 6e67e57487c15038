// Package physical is the plan-instantiation layer between the rewritten
// X100 algebra and the execution kernel — the rewriter/builder stage the
// paper files under "things most researchers do not think about": picking
// physical operators, placing parallelism, and accounting for the
// resources a plan will use before a single vector flows.
//
// It exposes three things:
//
//   - a typed physical-plan DAG (Node and its variants) in which every
//     node carries resolved column indexes, output vector kinds, compiled
//     expressions, and its degree of parallelism;
//   - Build, which lowers rewritten algebra into that DAG against a
//     Catalog (resolving column names to storage positions once, at plan
//     time, instead of during instantiation);
//   - a registry of operator factories plus Instantiate, which turns the
//     DAG into a kernel operator tree, wrapping every operator in a
//     profiling shell so per-operator statistics (exec.OpStats) are
//     uniformly available to EXPLAIN/PROFILE and the monitor.
package physical

import (
	"fmt"
	"slices"
	"strings"

	"vectorwise/internal/colstore"
	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// Node is one operator of the physical plan. Unlike algebra nodes, a
// physical node is fully resolved: column references are storage indexes,
// output kinds are known, and parallel placement is explicit.
type Node interface {
	// Op names the node kind; it is the operator-registry key.
	Op() string
	// Kinds lists the output vector kinds.
	Kinds() []types.Kind
	// Children returns the inputs.
	Children() []Node
	// Line renders this node (one line, children excluded).
	Line() string
	// Parallelism is the degree of parallelism this node introduces
	// (1 = serial; an exchange reports its fan-in).
	Parallelism() int
}

// ScanCols is what every scan node carries: the shared spec it executes and
// the physical column list Build resolved against the catalog — the names the
// rewriter derived from Spec.Cols, their storage positions and their kinds.
// Table, ranges and clustered window are read from the spec, never copied.
type ScanCols struct {
	Spec     *scanspec.Spec
	Cols     []string // physical column names (for display)
	ColIdxs  []int    // storage positions to read
	ColKinds []types.Kind
	// TableCols is the table's physical column count, the N of PROFILE's
	// "cols=k/N".
	TableCols int
}

// Kinds implements Node for the scan nodes: the stored columns' kinds, then
// BIGINT for the row-id column of a RID scan.
func (c *ScanCols) Kinds() []types.Kind {
	if c.Spec.RID {
		return append(c.ColKinds[:len(c.ColKinds):len(c.ColKinds)], types.KindInt64)
	}
	return c.ColKinds
}

// scanCols marks the scan nodes for the profile renderer.
func (c *ScanCols) scanCols() *ScanCols { return c }

// Filters resolves the spec's ranges to storage-column bounds for the
// scanner's block skipping and code filtering. A range names a column of
// Spec.Cols; the rewriter may have dropped columns before it from the
// physical list, so it is found by name. They apply on delta-free paths
// only; the residual Select above the scan keeps results exact either way.
func (c *ScanCols) Filters() []colstore.RangeFilter {
	var out []colstore.RangeFilter
	for _, r := range c.Spec.Ranges {
		if r.Lo == nil && r.Hi == nil {
			continue
		}
		out = append(out, colstore.RangeFilter{Col: c.ColIdxs[c.rangeCol(r)], Lo: r.Lo, Hi: r.Hi})
	}
	return out
}

// rangeCol is the position in Cols of a range's column, -1 if the list
// lacks it.
func (c *ScanCols) rangeCol(r scanspec.Range) int {
	return slices.Index(c.Cols, c.Spec.Cols.Cols[r.Col].Name)
}

// annotations renders the row-id marker of a RID scan, the filters
// and the clustered window hint (display only — the scanner re-derives the
// window in its own snapshot).
func (c *ScanCols) annotations() string {
	rid := ""
	if c.Spec.RID {
		rid = ", +" + scanspec.RIDName
	}
	filters := c.Filters()
	if len(filters) == 0 {
		return rid + c.Spec.Window.Suffix()
	}
	parts := make([]string, len(filters))
	for i, f := range filters {
		parts[i] = types.FormatRange("col", f.Col, f.Lo, f.Hi)
	}
	return rid + ", filters=[" + strings.Join(parts, ", ") + "]" + c.Spec.Window.Suffix()
}

// Scan reads resolved column positions from a vectorwise (column-store)
// table, serially. Parallel scans lower to ParallelScan instead.
type Scan struct{ ScanCols }

// Op implements Node.
func (s *Scan) Op() string { return "Scan" }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Parallelism implements Node.
func (s *Scan) Parallelism() int { return 1 }

// Line implements Node.
func (s *Scan) Line() string {
	return fmt.Sprintf("Scan('%s', %v @ %v%s)", s.Spec.Table, s.Cols, s.ColIdxs, s.annotations())
}

// ScanQueue identifies one run-time morsel queue. The P ParallelScan
// workers of a parallel fragment hold the same *ScanQueue, and the pointer
// itself is the shared-state key at execution: workers resolving it land on
// the same queue, distinct queues (self-joins, multiple parallel chains in
// one plan) stay distinct.
type ScanQueue struct {
	ID      int
	Workers int
}

// ParallelScan is one worker of a morsel-driven parallel scan: P siblings
// share the Queue and pull row-group morsels from it at run time. Which
// rows a worker reads is decided at Open, never at plan time — skew
// self-balances by stealing, and a snapshot with deltas degrades to one
// worker claiming the whole merged stream while the plan keeps its shape.
type ParallelScan struct {
	ScanCols
	Queue  *ScanQueue
	Worker int
}

// Op implements Node.
func (s *ParallelScan) Op() string { return "ParallelScan" }

// Children implements Node.
func (s *ParallelScan) Children() []Node { return nil }

// Parallelism implements Node: each worker is one stream; the exchange
// above reports the fan-in.
func (s *ParallelScan) Parallelism() int { return 1 }

// Line implements Node.
func (s *ParallelScan) Line() string {
	return fmt.Sprintf("ParallelScan('%s', %v @ %v, worker %d/%d, queue=%d%s)",
		s.Spec.Table, s.Cols, s.ColIdxs, s.Worker, s.Queue.Workers, s.Queue.ID, s.annotations())
}

// HeapScan adapts a classic (slotted-page) heap table into the vectorized
// pipeline, decomposing rows into value+indicator columns on the fly. Heap
// rows are stored whole, so Logical is the table's full row schema while
// ColIdxs picks the spec's columns out of the decomposed row. Its $rid is the
// row's packed rowengine.RowID.
type HeapScan struct {
	ScanCols
	Logical *types.Schema // heap row schema (pre-decomposition)
}

// Op implements Node.
func (s *HeapScan) Op() string { return "HeapScan" }

// Children implements Node.
func (s *HeapScan) Children() []Node { return nil }

// Parallelism implements Node.
func (s *HeapScan) Parallelism() int { return 1 }

// Line implements Node.
func (s *HeapScan) Line() string {
	return fmt.Sprintf("HeapScan('%s', %v @ %v%s)", s.Spec.Table, s.Cols, s.ColIdxs, s.annotations())
}

// Values is a literal relation.
type Values struct {
	Schema *types.Schema
	Rows   [][]types.Value
}

// Op implements Node.
func (v *Values) Op() string { return "Values" }

// Kinds implements Node.
func (v *Values) Kinds() []types.Kind {
	out := make([]types.Kind, v.Schema.Len())
	for i, c := range v.Schema.Cols {
		out[i] = c.Type.Kind
	}
	return out
}

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// Parallelism implements Node.
func (v *Values) Parallelism() int { return 1 }

// Line implements Node.
func (v *Values) Line() string { return fmt.Sprintf("Values(%d rows)", len(v.Rows)) }

// Select filters by a compiled boolean expression.
type Select struct {
	Child Node
	Pred  expr.Expr
}

// Op implements Node.
func (s *Select) Op() string { return "Select" }

// Kinds implements Node.
func (s *Select) Kinds() []types.Kind { return s.Child.Kinds() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Child} }

// Parallelism implements Node.
func (s *Select) Parallelism() int { return 1 }

// Line implements Node.
func (s *Select) Line() string { return "Select(" + s.Pred.String() + ")" }

// Project computes compiled expressions.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Names []string
}

// Op implements Node.
func (p *Project) Op() string { return "Project" }

// Kinds implements Node.
func (p *Project) Kinds() []types.Kind {
	out := make([]types.Kind, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = e.Type().Kind
	}
	return out
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Parallelism implements Node.
func (p *Project) Parallelism() int { return 1 }

// Line implements Node.
func (p *Project) Line() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = p.Names[i] + "=" + e.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// HashAgg groups and aggregates; output kinds are resolved at build time.
type HashAgg struct {
	Child     Node
	GroupCols []int
	Aggs      []exec.AggSpec
	OutKinds  []types.Kind
}

// Op implements Node.
func (a *HashAgg) Op() string { return "HashAgg" }

// Kinds implements Node.
func (a *HashAgg) Kinds() []types.Kind { return a.OutKinds }

// Children implements Node.
func (a *HashAgg) Children() []Node { return []Node{a.Child} }

// Parallelism implements Node.
func (a *HashAgg) Parallelism() int { return 1 }

// Line implements Node.
func (a *HashAgg) Line() string {
	aggs := make([]string, len(a.Aggs))
	for i, sp := range a.Aggs {
		if sp.Col < 0 {
			aggs[i] = sp.Fn.String() + "(*)"
		} else {
			aggs[i] = fmt.Sprintf("%s($%d)", sp.Fn, sp.Col)
		}
	}
	return fmt.Sprintf("HashAgg(groups=%v, [%s])", a.GroupCols, strings.Join(aggs, ", "))
}

// HashJoin joins on key equality; LeftKeyNull/RightKeyNull carry the
// indicator columns the null-aware anti join consults (-1 otherwise).
type HashJoin struct {
	Left, Right  Node
	Type         exec.JoinType
	LeftKeys     []int
	RightKeys    []int
	LeftKeyNull  int
	RightKeyNull int
	OutKinds     []types.Kind
}

// Op implements Node.
func (j *HashJoin) Op() string { return "HashJoin" }

// Kinds implements Node.
func (j *HashJoin) Kinds() []types.Kind { return j.OutKinds }

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Parallelism implements Node.
func (j *HashJoin) Parallelism() int { return 1 }

// Line implements Node.
func (j *HashJoin) Line() string {
	return fmt.Sprintf("HashJoin[%s](lk=%v, rk=%v)", j.Type, j.LeftKeys, j.RightKeys)
}

// Sort orders rows.
type Sort struct {
	Child Node
	Keys  []exec.SortKey
}

// Op implements Node.
func (s *Sort) Op() string { return "Sort" }

// Kinds implements Node.
func (s *Sort) Kinds() []types.Kind { return s.Child.Kinds() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Parallelism implements Node.
func (s *Sort) Parallelism() int { return 1 }

// Line implements Node.
func (s *Sort) Line() string { return fmt.Sprintf("Sort(%s)", keysString(s.Keys)) }

// TopN is Sort fused with a row limit.
type TopN struct {
	Child Node
	Keys  []exec.SortKey
	N     int
}

// Op implements Node.
func (t *TopN) Op() string { return "TopN" }

// Kinds implements Node.
func (t *TopN) Kinds() []types.Kind { return t.Child.Kinds() }

// Children implements Node.
func (t *TopN) Children() []Node { return []Node{t.Child} }

// Parallelism implements Node.
func (t *TopN) Parallelism() int { return 1 }

// Line implements Node.
func (t *TopN) Line() string { return fmt.Sprintf("TopN(%s, %d)", keysString(t.Keys), t.N) }

// Limit caps output.
type Limit struct {
	Child  Node
	Offset int64
	N      int64
}

// Op implements Node.
func (l *Limit) Op() string { return "Limit" }

// Kinds implements Node.
func (l *Limit) Kinds() []types.Kind { return l.Child.Kinds() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// Parallelism implements Node.
func (l *Limit) Parallelism() int { return 1 }

// Line implements Node.
func (l *Limit) Line() string { return fmt.Sprintf("Limit(%d, %d)", l.Offset, l.N) }

// Union concatenates children serially.
type Union struct{ Kids []Node }

// Op implements Node.
func (u *Union) Op() string { return "Union" }

// Kinds implements Node.
func (u *Union) Kinds() []types.Kind { return u.Kids[0].Kinds() }

// Children implements Node.
func (u *Union) Children() []Node { return u.Kids }

// Parallelism implements Node.
func (u *Union) Parallelism() int { return 1 }

// Line implements Node.
func (u *Union) Line() string { return fmt.Sprintf("Union(%d)", len(u.Kids)) }

// Xchg is the Volcano-style exchange: each child fragment runs in its own
// goroutine and the streams merge here. Its Parallelism is the plan's
// explicit record of where (and how wide) parallelism was placed.
type Xchg struct {
	Kids   []Node
	Degree int
}

// Op implements Node.
func (x *Xchg) Op() string { return "Xchg" }

// Kinds implements Node.
func (x *Xchg) Kinds() []types.Kind { return x.Kids[0].Kinds() }

// Children implements Node.
func (x *Xchg) Children() []Node { return x.Kids }

// Parallelism implements Node.
func (x *Xchg) Parallelism() int { return x.Degree }

// Line implements Node.
func (x *Xchg) Line() string { return fmt.Sprintf("Xchg(degree=%d)", x.Degree) }

// XchgMerge is the order-preserving exchange: children are pre-sorted
// parallel fragments and the merge keeps their union globally sorted.
type XchgMerge struct {
	Kids []Node
	Keys []exec.SortKey
}

// Op implements Node.
func (x *XchgMerge) Op() string { return "XchgMerge" }

// Kinds implements Node.
func (x *XchgMerge) Kinds() []types.Kind { return x.Kids[0].Kinds() }

// Children implements Node.
func (x *XchgMerge) Children() []Node { return x.Kids }

// Parallelism implements Node.
func (x *XchgMerge) Parallelism() int { return len(x.Kids) }

// Line implements Node.
func (x *XchgMerge) Line() string {
	return fmt.Sprintf("XchgMerge(degree=%d, keys=%s)", len(x.Kids), keysString(x.Keys))
}

// ParallelHashJoin is a hash join with one shared build (run once, by the
// first prober to need it) and P concurrent probe fragments merged by an
// exchange union. Children are [Build, Probes...].
type ParallelHashJoin struct {
	Build        Node
	Probes       []Node
	Type         exec.JoinType
	LeftKeys     []int
	RightKeys    []int
	LeftKeyNull  int
	RightKeyNull int
	OutKinds     []types.Kind
}

// Op implements Node.
func (j *ParallelHashJoin) Op() string { return "ParallelHashJoin" }

// Kinds implements Node.
func (j *ParallelHashJoin) Kinds() []types.Kind { return j.OutKinds }

// Children implements Node.
func (j *ParallelHashJoin) Children() []Node {
	return append([]Node{j.Build}, j.Probes...)
}

// Parallelism implements Node.
func (j *ParallelHashJoin) Parallelism() int { return len(j.Probes) }

// Line implements Node.
func (j *ParallelHashJoin) Line() string {
	return fmt.Sprintf("ParallelHashJoin[%s](lk=%v, rk=%v, degree=%d)",
		j.Type, j.LeftKeys, j.RightKeys, len(j.Probes))
}

func keysString(keys []exec.SortKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("$%d %s", k.Col, dir)
	}
	return strings.Join(parts, ", ")
}

// Format renders the physical DAG in indented form with output kinds —
// the body of EXPLAIN PHYSICAL.
func Format(n Node) string {
	return render(n, func(m Node) string { return " :: " + kindsString(m.Kinds()) })
}

// render walks the DAG producing one indented line per node: Line() plus
// a caller-supplied annotation (kinds for Format, counters for profiles).
func render(n Node, annotate func(Node) string) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Line())
		b.WriteString(annotate(n))
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

func kindsString(kinds []types.Kind) string {
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = k.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Walk visits the DAG prefix-order.
func Walk(n Node, f func(Node) bool) {
	if !f(n) {
		return
	}
	for _, c := range n.Children() {
		Walk(c, f)
	}
}

// MaxParallelism reports the widest parallel region of a plan (1 = fully
// serial) — the resource-accounting figure the parallelizer exposes.
func MaxParallelism(n Node) int {
	max := 1
	Walk(n, func(m Node) bool {
		if p := m.Parallelism(); p > max {
			max = p
		}
		return true
	})
	return max
}
