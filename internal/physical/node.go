// Package physical is the one operator tree below the optimizer, and the
// stage that turns it into kernel operators — the rewriter/builder work the
// paper files under "things most researchers do not think about": picking
// physical operators, placing parallelism, and resolving a plan against the
// storage it will read before a single vector flows.
//
// The tree passes through three phases, all on the same node types:
//
//   - the cross compiler (internal/xcompile) emits it from an optimized
//     plan; schemas may still carry NULLable columns;
//   - the rewriter (internal/rewriter) decomposes NULLs into
//     value+indicator columns, prunes every node and scan to the columns
//     read and parallelizes;
//   - Build resolves every scan against a Catalog (column names to storage
//     positions, and the access path: Scan, ParallelScan or HeapScan).
//
// Instantiate then turns the tree into a kernel operator tree, wrapping
// every operator in a profiling shell so per-operator statistics
// (exec.OpStats) are uniformly available to EXPLAIN/PROFILE and the monitor.
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

// Node is one operator of the plan. Expressions and every column list
// (keys, group columns, sort keys) are positional over the children's
// schemas.
type Node interface {
	// Op names the node kind; it labels the operator in profiles.
	Op() string
	// Schema returns the output columns: NULLable until the rewriter's
	// decomposition, plain vectors afterwards.
	Schema() *types.Schema
	// Children returns the inputs.
	Children() []Node
	// WithChildren rebuilds the node over new inputs.
	WithChildren(ch []Node) Node
	// Line renders this node (one line, children excluded).
	Line() string
}

// Kinds lists the output vector kinds of n, read off its schema.
func Kinds(n Node) []types.Kind {
	s := n.Schema()
	out := make([]types.Kind, s.Len())
	for i, c := range s.Cols {
		out[i] = c.Type.Kind
	}
	return out
}

// ScanCols is what every scan node carries: the shared spec it executes, its
// output schema and, once Build has resolved it against the catalog, the
// storage positions and kinds of the stored columns. Out is Spec.Schema() as
// compiled, then the physical list the rewriter derives from it (value
// columns, then the $null indicators of the NULLable ones, then the position
// column of a RID scan). Table, ranges and clustered window are read from the
// spec, never copied.
type ScanCols struct {
	Spec     *scanspec.Spec
	Out      *types.Schema
	ColIdxs  []int // storage positions to read
	ColKinds []types.Kind
	// TableCols is the table's physical column count, the N of PROFILE's
	// "cols=k/N".
	TableCols int
}

// Schema implements Node for the scan nodes.
func (c *ScanCols) Schema() *types.Schema { return c.Out }

// Children implements Node for the scan nodes.
func (c *ScanCols) Children() []Node { return nil }

// cols names the stored columns the scan reads: its output minus the row-id
// column of a RID scan, which the scan operator makes itself.
func (c *ScanCols) cols() []string {
	names := c.Out.Names()
	if c.Spec.RID {
		names = names[:len(names)-1]
	}
	return names
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

// rangeCol is the position in cols of a range's column, -1 if the list
// lacks it.
func (c *ScanCols) rangeCol(r scanspec.Range) int {
	return slices.Index(c.cols(), c.Spec.Cols.Cols[r.Col].Name)
}

// annotations renders the row-id marker of a RID scan, the filters (the
// spec's ranges before Build resolves the scan) and the clustered window
// hint (display only — the scanner re-derives the window in its own
// snapshot).
func (c *ScanCols) annotations() string {
	rid := ""
	if c.Spec.RID {
		rid = ", +" + scanspec.RIDName
	}
	if c.ColIdxs == nil {
		// Not resolved yet: the ranges as the spec numbers them.
		return rid + c.Spec.Suffix()
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

// Scan reads a table serially. The cross compiler emits it for every table;
// Build turns the scan of a heap table into a HeapScan.
type Scan struct{ ScanCols }

// Op implements Node.
func (s *Scan) Op() string { return "Scan" }

// WithChildren implements Node.
func (s *Scan) WithChildren([]Node) Node { return s }

// Line implements Node.
func (s *Scan) Line() string {
	return fmt.Sprintf("Scan('%s', %v @ %v%s)", s.Spec.Table, s.cols(), s.ColIdxs, s.annotations())
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

// ParallelScan is one worker of a morsel-driven parallel scan of a
// vectorwise table: the parallelizer clones a scan into P siblings sharing
// the Queue, and they pull row-group morsels from it at run time. Which rows
// a worker reads is decided at Open, never at plan time — skew self-balances
// by stealing, and a snapshot with deltas degrades to one worker claiming
// the whole merged stream while the plan keeps its shape.
type ParallelScan struct {
	ScanCols
	Queue  *ScanQueue
	Worker int
}

// Op implements Node.
func (s *ParallelScan) Op() string { return "ParallelScan" }

// WithChildren implements Node.
func (s *ParallelScan) WithChildren([]Node) Node { return s }

// Line implements Node.
func (s *ParallelScan) Line() string {
	return fmt.Sprintf("ParallelScan('%s', %v @ %v, worker %d/%d, queue=%d%s)",
		s.Spec.Table, s.cols(), s.ColIdxs, s.Worker, s.Queue.Workers, s.Queue.ID, s.annotations())
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

// WithChildren implements Node.
func (s *HeapScan) WithChildren([]Node) Node { return s }

// Line implements Node.
func (s *HeapScan) Line() string {
	return fmt.Sprintf("HeapScan('%s', %v @ %v%s)", s.Spec.Table, s.cols(), s.ColIdxs, s.annotations())
}

// Values is a literal relation.
type Values struct {
	Rows [][]types.Value
	Out  *types.Schema
}

// Op implements Node.
func (v *Values) Op() string { return "Values" }

// Schema implements Node.
func (v *Values) Schema() *types.Schema { return v.Out }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// WithChildren implements Node.
func (v *Values) WithChildren([]Node) Node { return v }

// Line implements Node.
func (v *Values) Line() string { return fmt.Sprintf("Values(%d rows)", len(v.Rows)) }

// Select filters by a boolean expression.
type Select struct {
	Child Node
	Pred  expr.Expr
}

// Op implements Node.
func (s *Select) Op() string { return "Select" }

// Schema implements Node.
func (s *Select) Schema() *types.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Child} }

// WithChildren implements Node.
func (s *Select) WithChildren(ch []Node) Node { return &Select{Child: ch[0], Pred: s.Pred} }

// Line implements Node.
func (s *Select) Line() string { return "Select(" + s.Pred.String() + ")" }

// Project computes expressions.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Names []string
}

// Op implements Node.
func (p *Project) Op() string { return "Project" }

// Schema implements Node.
func (p *Project) Schema() *types.Schema {
	s := &types.Schema{Cols: make([]types.Column, len(p.Exprs))}
	for i, e := range p.Exprs {
		s.Cols[i] = types.Col(p.Names[i], e.Type())
	}
	return s
}

// PassesThrough reports whether p computes nothing: its expressions are
// column references only, and together they name every column of its child.
func (p *Project) PassesThrough() bool {
	for _, e := range p.Exprs {
		if _, ok := e.(*expr.ColRef); !ok {
			return false
		}
	}
	seen := make([]bool, p.Child.Schema().Len())
	n := 0
	for _, e := range p.Exprs {
		if c := e.(*expr.ColRef).Idx; !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n == len(seen)
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// WithChildren implements Node.
func (p *Project) WithChildren(ch []Node) Node {
	return &Project{Child: ch[0], Exprs: p.Exprs, Names: p.Names}
}

// Line implements Node.
func (p *Project) Line() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = p.Names[i] + "=" + e.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// HashAgg groups and aggregates. Names name the group columns, then the
// aggregates.
type HashAgg struct {
	Child     Node
	GroupCols []int
	Aggs      []exec.AggSpec
	Names     []string
}

// Op implements Node.
func (a *HashAgg) Op() string { return "HashAgg" }

// Schema implements Node: the group columns, then one column per
// aggregate. COUNT is never NULL; every other aggregate is as NULLable as
// its input, which NULL decomposition turns into a value column the
// aggregate reads and an indicator it skips rows by.
func (a *HashAgg) Schema() *types.Schema {
	in := a.Child.Schema()
	s := &types.Schema{Cols: make([]types.Column, 0, len(a.GroupCols)+len(a.Aggs))}
	for i, g := range a.GroupCols {
		c := in.Cols[g]
		c.Name = a.Names[i]
		s.Cols = append(s.Cols, c)
	}
	for i, sp := range a.Aggs {
		var t types.T
		switch sp.Fn {
		case exec.AggCount:
			t = types.Int64
		case exec.AggAvg, exec.AggSumFloat:
			t = types.Float64
			t.Nullable = in.Cols[sp.Col].Type.Nullable
		case exec.AggSum:
			t = types.Int64
			if in.Cols[sp.Col].Type.Kind == types.KindFloat64 {
				t = types.Float64
			}
			t.Nullable = in.Cols[sp.Col].Type.Nullable
		default:
			t = in.Cols[sp.Col].Type
		}
		s.Cols = append(s.Cols, types.Col(a.Names[len(a.GroupCols)+i], t))
	}
	return s
}

// Children implements Node.
func (a *HashAgg) Children() []Node { return []Node{a.Child} }

// WithChildren implements Node.
func (a *HashAgg) WithChildren(ch []Node) Node {
	out := *a
	out.Child = ch[0]
	return &out
}

// Line implements Node.
func (a *HashAgg) Line() string {
	aggs := make([]string, len(a.Aggs))
	for i, sp := range a.Aggs {
		arg := "*"
		if sp.Col >= 0 {
			arg = fmt.Sprintf("$%d", sp.Col)
		}
		if c := sp.IndCol(); c >= 0 {
			arg += fmt.Sprintf(" skip $%d", c)
		}
		aggs[i] = sp.Fn.String() + "(" + arg + ")"
	}
	return fmt.Sprintf("HashAgg(groups=%v, [%s])", a.GroupCols, strings.Join(aggs, ", "))
}

// HashJoin joins on key equality. After NULL decomposition,
// LeftKeyNull/RightKeyNull carry the indicator columns the null-aware anti
// join consults (-1 otherwise), and WithMatch exposes the left outer join's
// match indicator as a trailing BOOLEAN column.
type HashJoin struct {
	Left, Right  Node
	Type         exec.JoinType
	LeftKeys     []int
	RightKeys    []int
	LeftKeyNull  int
	RightKeyNull int
	WithMatch    bool
}

// Op implements Node.
func (j *HashJoin) Op() string { return "HashJoin" }

// Schema implements Node.
func (j *HashJoin) Schema() *types.Schema {
	return joinSchema(j.Left.Schema(), j.Right.Schema(), j.Type, j.WithMatch)
}

// joinSchema is the output of a join of left (the probe side) and right
// (the build side): semi and anti joins emit the left columns; a left outer
// join makes the right ones NULLable, or appends $match once decomposed.
func joinSchema(left, right *types.Schema, jt exec.JoinType, withMatch bool) *types.Schema {
	s := &types.Schema{}
	s.Cols = append(s.Cols, left.Cols...)
	switch jt {
	case exec.Semi, exec.Anti, exec.AntiNullAware:
		return s
	case exec.LeftOuter:
		for _, c := range right.Cols {
			if !withMatch {
				c.Type = c.Type.Null()
			}
			s.Cols = append(s.Cols, c)
		}
		if withMatch {
			s.Cols = append(s.Cols, types.Col("$match", types.Bool))
		}
		return s
	default:
		s.Cols = append(s.Cols, right.Cols...)
		return s
	}
}

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.Left, j.Right} }

// WithChildren implements Node.
func (j *HashJoin) WithChildren(ch []Node) Node {
	out := *j
	out.Left, out.Right = ch[0], ch[1]
	return &out
}

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

// Schema implements Node.
func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// WithChildren implements Node.
func (s *Sort) WithChildren(ch []Node) Node { return &Sort{Child: ch[0], Keys: s.Keys} }

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

// Schema implements Node.
func (t *TopN) Schema() *types.Schema { return t.Child.Schema() }

// Children implements Node.
func (t *TopN) Children() []Node { return []Node{t.Child} }

// WithChildren implements Node.
func (t *TopN) WithChildren(ch []Node) Node { return &TopN{Child: ch[0], Keys: t.Keys, N: t.N} }

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

// Schema implements Node.
func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// WithChildren implements Node.
func (l *Limit) WithChildren(ch []Node) Node {
	return &Limit{Child: ch[0], Offset: l.Offset, N: l.N}
}

// Line implements Node.
func (l *Limit) Line() string { return fmt.Sprintf("Limit(%d, %d)", l.Offset, l.N) }

// Xchg is the Volcano-style exchange the parallelizer places (claim C9):
// each child fragment runs in its own goroutine and the streams merge here.
type Xchg struct{ Kids []Node }

// Op implements Node.
func (x *Xchg) Op() string { return "Xchg" }

// Schema implements Node.
func (x *Xchg) Schema() *types.Schema { return x.Kids[0].Schema() }

// Children implements Node.
func (x *Xchg) Children() []Node { return x.Kids }

// WithChildren implements Node.
func (x *Xchg) WithChildren(ch []Node) Node { return &Xchg{Kids: ch} }

// Line implements Node.
func (x *Xchg) Line() string { return fmt.Sprintf("Xchg(degree=%d)", len(x.Kids)) }

// XchgMerge is the order-preserving exchange: children are parallel
// fragments already sorted on Keys (a per-worker local sort or top-N) and
// the merge keeps their union globally sorted.
type XchgMerge struct {
	Kids []Node
	Keys []exec.SortKey
}

// Op implements Node.
func (x *XchgMerge) Op() string { return "XchgMerge" }

// Schema implements Node.
func (x *XchgMerge) Schema() *types.Schema { return x.Kids[0].Schema() }

// Children implements Node.
func (x *XchgMerge) Children() []Node { return x.Kids }

// WithChildren implements Node.
func (x *XchgMerge) WithChildren(ch []Node) Node { return &XchgMerge{Kids: ch, Keys: x.Keys} }

// Line implements Node.
func (x *XchgMerge) Line() string {
	return fmt.Sprintf("XchgMerge(degree=%d, keys=%s)", len(x.Kids), keysString(x.Keys))
}

// ParallelHashJoin is a hash join with one shared build (run once, by the
// first prober to need it) and P concurrent probe fragments merged by an
// exchange union. Children are [Build, Probes...]; the probe fragments all
// share the probe-side schema.
type ParallelHashJoin struct {
	Build        Node
	Probes       []Node
	Type         exec.JoinType
	LeftKeys     []int
	RightKeys    []int
	LeftKeyNull  int
	RightKeyNull int
	WithMatch    bool
}

// Op implements Node.
func (j *ParallelHashJoin) Op() string { return "ParallelHashJoin" }

// Schema implements Node: identical to the equivalent serial HashJoin.
func (j *ParallelHashJoin) Schema() *types.Schema {
	return joinSchema(j.Probes[0].Schema(), j.Build.Schema(), j.Type, j.WithMatch)
}

// Children implements Node.
func (j *ParallelHashJoin) Children() []Node {
	return append([]Node{j.Build}, j.Probes...)
}

// WithChildren implements Node.
func (j *ParallelHashJoin) WithChildren(ch []Node) Node {
	out := *j
	out.Build, out.Probes = ch[0], ch[1:]
	return &out
}

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

// Format renders the tree in indented form with output kinds — the body of
// EXPLAIN PHYSICAL.
func Format(n Node) string {
	return render(n, func(m Node) string { return " :: " + kindsString(Kinds(m)) })
}

// render walks the tree producing one indented line per node: Line() plus
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
