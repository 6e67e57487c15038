// Package algebra defines the X100 algebra: the physical operator tree the
// cross compiler emits and the Vectorwise rewriter transforms before the
// kernel executes it. Expressions reuse internal/expr with positional
// column references.
//
// Before the rewriter's NULL-decomposition pass, schemas may still carry
// NULLable columns and expressions may use the logical NULL functions
// (isnull, ifnull, …); afterwards every column is a plain physical vector
// and the engine's plan builder (internal/engine) can instantiate kernel
// operators directly.
package algebra

import (
	"fmt"
	"strings"

	"vectorwise/internal/expr"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// Node is an algebra operator.
type Node interface {
	// Schema returns the output columns.
	Schema() *types.Schema
	// Children returns the inputs.
	Children() []Node
	// WithChildren rebuilds with new inputs.
	WithChildren(ch []Node) Node
	// Line renders this node (one line, children excluded).
	Line() string
}

// Scan reads columns of a table. What it reads is the shared Spec, held by
// pointer from the cross compiler to the physical plan; Out is this node's
// output schema — Spec.Schema() as compiled, or the physical list the
// rewriter's NULL decomposition derives from it (value columns, then the $null
// indicators of the NULLable ones, then the position column of a RID scan).
// In parallel plans the parallelizer
// clones the scan into P morsel workers: all clones share the Spec and the
// MorselID (one run-time work queue of row-group morsels) and each carries
// its Worker slot. Morsels == 0 means a plain serial scan.
type Scan struct {
	Spec *scanspec.Spec
	Out  *types.Schema
	// Morsels is the worker count of the morsel queue this scan belongs to
	// (0 = serial); MorselID links sibling workers to the same queue and
	// Worker is this clone's slot in it.
	Morsels  int
	MorselID int
	Worker   int
}

// Schema implements Node.
func (s *Scan) Schema() *types.Schema { return s.Out }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// WithChildren implements Node.
func (s *Scan) WithChildren(ch []Node) Node { return s }

// Line implements Node.
func (s *Scan) Line() string {
	part := ""
	if s.Morsels > 1 {
		part = fmt.Sprintf(" morsel worker %d/%d", s.Worker, s.Morsels)
	}
	return fmt.Sprintf("Scan('%s', [%s]%s%s)", s.Spec.Table,
		strings.Join(s.Out.Names(), ", "), part, s.Spec.Suffix())
}

// Select filters by a boolean expression.
type Select struct {
	Child Node
	Pred  expr.Expr
}

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

// Schema implements Node.
func (p *Project) Schema() *types.Schema {
	s := &types.Schema{}
	for i, e := range p.Exprs {
		s.Cols = append(s.Cols, types.Col(p.Names[i], e.Type()))
	}
	return s
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

// AggItem is one aggregate over a child column.
type AggItem struct {
	Fn  string // count, sum, min, max, avg; count_false (of a BOOLEAN column) after NULL decomposition
	Col int    // -1 for count(*)
}

// Aggr groups and aggregates.
type Aggr struct {
	Child     Node
	GroupCols []int
	Aggs      []AggItem
	Names     []string
}

// Schema implements Node.
func (a *Aggr) Schema() *types.Schema {
	in := a.Child.Schema()
	s := &types.Schema{}
	for i, g := range a.GroupCols {
		c := in.Cols[g]
		c.Name = a.Names[i]
		s.Cols = append(s.Cols, c)
	}
	for i, it := range a.Aggs {
		var t types.T
		switch it.Fn {
		case "count", "count_false":
			t = types.Int64
		case "avg":
			t = types.Float64
		case "sum":
			if in.Cols[it.Col].Type.Kind == types.KindFloat64 {
				t = types.Float64
			} else {
				t = types.Int64
			}
			t.Nullable = in.Cols[it.Col].Type.Nullable
		default:
			t = in.Cols[it.Col].Type
		}
		s.Cols = append(s.Cols, types.Col(a.Names[len(a.GroupCols)+i], t))
	}
	return s
}

// Children implements Node.
func (a *Aggr) Children() []Node { return []Node{a.Child} }

// WithChildren implements Node.
func (a *Aggr) WithChildren(ch []Node) Node {
	return &Aggr{Child: ch[0], GroupCols: a.GroupCols, Aggs: a.Aggs, Names: a.Names}
}

// Line implements Node.
func (a *Aggr) Line() string {
	var aggs []string
	for _, it := range a.Aggs {
		if it.Col < 0 {
			aggs = append(aggs, it.Fn+"(*)")
		} else {
			aggs = append(aggs, fmt.Sprintf("%s($%d)", it.Fn, it.Col))
		}
	}
	return fmt.Sprintf("Aggr(groups=%v, [%s])", a.GroupCols, strings.Join(aggs, ", "))
}

// JoinKind mirrors the kernel's join types.
type JoinKind uint8

// The algebra join kinds.
const (
	Inner JoinKind = iota
	LeftOuter
	Semi
	Anti
	AntiNullAware
)

// String names the kind.
func (k JoinKind) String() string {
	return [...]string{"inner", "leftouter", "semi", "anti", "antinull"}[k]
}

// HashJoin joins on key-column equality. After NULL decomposition,
// LeftKeyNull/RightKeyNull point at indicator columns for the null-aware
// anti join (-1 otherwise).
type HashJoin struct {
	Left, Right  Node
	Kind         JoinKind
	LeftKeys     []int
	RightKeys    []int
	LeftKeyNull  int
	RightKeyNull int
	// WithMatch exposes the LeftOuter match indicator as a trailing BOOL
	// column (set by the rewriter's decomposition pass).
	WithMatch bool
}

// Schema implements Node.
func (j *HashJoin) Schema() *types.Schema {
	s := &types.Schema{}
	s.Cols = append(s.Cols, j.Left.Schema().Cols...)
	switch j.Kind {
	case Semi, Anti, AntiNullAware:
		return s
	case LeftOuter:
		for _, c := range j.Right.Schema().Cols {
			if !j.WithMatch {
				c.Type = c.Type.Null()
			}
			s.Cols = append(s.Cols, c)
		}
		if j.WithMatch {
			s.Cols = append(s.Cols, types.Col("$match", types.Bool))
		}
		return s
	default:
		s.Cols = append(s.Cols, j.Right.Schema().Cols...)
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
	return fmt.Sprintf("HashJoin%s(lk=%v, rk=%v)", j.Kind, j.LeftKeys, j.RightKeys)
}

// SortKey orders by one column.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort orders rows.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// WithChildren implements Node.
func (s *Sort) WithChildren(ch []Node) Node { return &Sort{Child: ch[0], Keys: s.Keys} }

// Line implements Node.
func (s *Sort) Line() string { return fmt.Sprintf("Sort(%v)", s.Keys) }

// TopN is Sort fused with a row limit.
type TopN struct {
	Child Node
	Keys  []SortKey
	N     int64
}

// Schema implements Node.
func (t *TopN) Schema() *types.Schema { return t.Child.Schema() }

// Children implements Node.
func (t *TopN) Children() []Node { return []Node{t.Child} }

// WithChildren implements Node.
func (t *TopN) WithChildren(ch []Node) Node { return &TopN{Child: ch[0], Keys: t.Keys, N: t.N} }

// Line implements Node.
func (t *TopN) Line() string { return fmt.Sprintf("TopN(%v, %d)", t.Keys, t.N) }

// Limit caps output.
type Limit struct {
	Child  Node
	Offset int64
	N      int64
}

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

// UnionAll concatenates children.
type UnionAll struct{ Kids []Node }

// Schema implements Node.
func (u *UnionAll) Schema() *types.Schema { return u.Kids[0].Schema() }

// Children implements Node.
func (u *UnionAll) Children() []Node { return u.Kids }

// WithChildren implements Node.
func (u *UnionAll) WithChildren(ch []Node) Node { return &UnionAll{Kids: ch} }

// Line implements Node.
func (u *UnionAll) Line() string { return fmt.Sprintf("UnionAll(%d)", len(u.Kids)) }

// XchgUnion merges children executed in parallel goroutines — the
// Volcano-style exchange the rewriter's parallelizer inserts (claim C9).
type XchgUnion struct{ Kids []Node }

// Schema implements Node.
func (x *XchgUnion) Schema() *types.Schema { return x.Kids[0].Schema() }

// Children implements Node.
func (x *XchgUnion) Children() []Node { return x.Kids }

// WithChildren implements Node.
func (x *XchgUnion) WithChildren(ch []Node) Node { return &XchgUnion{Kids: ch} }

// Line implements Node.
func (x *XchgUnion) Line() string { return fmt.Sprintf("XchgUnion(%d)", len(x.Kids)) }

// XchgMerge is the order-preserving exchange: each child is a parallel
// fragment already sorted on Keys (a per-worker local sort or top-N) and
// the merge keeps the union globally sorted — how the parallelizer
// parallelizes Sort and TopN without a serial re-sort.
type XchgMerge struct {
	Kids []Node
	Keys []SortKey
}

// Schema implements Node.
func (x *XchgMerge) Schema() *types.Schema { return x.Kids[0].Schema() }

// Children implements Node.
func (x *XchgMerge) Children() []Node { return x.Kids }

// WithChildren implements Node.
func (x *XchgMerge) WithChildren(ch []Node) Node { return &XchgMerge{Kids: ch, Keys: x.Keys} }

// Line implements Node.
func (x *XchgMerge) Line() string { return fmt.Sprintf("XchgMerge(%d, %v)", len(x.Kids), x.Keys) }

// ParallelHashJoin is a hash join whose build side runs once (shared by
// every worker) while P probe fragments — morsel-scan chains — probe it
// concurrently, merged by an exchange union. Children are [Build,
// Probes...]; the probe fragments all share the probe-side schema.
type ParallelHashJoin struct {
	Build        Node
	Probes       []Node
	Kind         JoinKind
	LeftKeys     []int
	RightKeys    []int
	LeftKeyNull  int
	RightKeyNull int
	WithMatch    bool
}

// Schema implements Node: identical to the equivalent serial HashJoin.
func (j *ParallelHashJoin) Schema() *types.Schema {
	eq := &HashJoin{Left: j.Probes[0], Right: j.Build, Kind: j.Kind,
		WithMatch: j.WithMatch}
	return eq.Schema()
}

// Children implements Node.
func (j *ParallelHashJoin) Children() []Node {
	return append([]Node{j.Build}, j.Probes...)
}

// WithChildren implements Node.
func (j *ParallelHashJoin) WithChildren(ch []Node) Node {
	out := *j
	out.Build = ch[0]
	out.Probes = ch[1:]
	return &out
}

// Line implements Node.
func (j *ParallelHashJoin) Line() string {
	return fmt.Sprintf("ParallelHashJoin%s(lk=%v, rk=%v, probes=%d)",
		j.Kind, j.LeftKeys, j.RightKeys, len(j.Probes))
}

// Values is a literal relation.
type Values struct {
	Rows [][]types.Value
	Out  *types.Schema
}

// Schema implements Node.
func (v *Values) Schema() *types.Schema { return v.Out }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// WithChildren implements Node.
func (v *Values) WithChildren(ch []Node) Node { return v }

// Line implements Node.
func (v *Values) Line() string { return fmt.Sprintf("Values(%d)", len(v.Rows)) }

// Format renders the algebra tree in indented X100 style.
func Format(n Node) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Line())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// Walk visits the tree prefix-order.
func Walk(n Node, f func(Node) bool) {
	if !f(n) {
		return
	}
	for _, c := range n.Children() {
		Walk(c, f)
	}
}
