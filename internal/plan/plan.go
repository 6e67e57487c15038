// Package plan defines the logical relational plan and the binder that
// produces it from a SQL AST. This layer plays the role of Ingres' query
// representation in Figure 1: names are resolved, types (including
// NULLability) are inferred, and the tree is ready for the optimizer.
package plan

import (
	"fmt"
	"strings"

	"vectorwise/internal/expr"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// Node is a logical plan operator.
type Node interface {
	// Schema returns the named, typed (nullable-aware) output columns.
	Schema() *types.Schema
	// Children returns input plans.
	Children() []Node
	// WithChildren rebuilds the node with new inputs (same arity).
	WithChildren(ch []Node) Node
	// String renders one line (plan printers indent children).
	String() string
}

// Scan reads a base table. What it reads — table, column list, range bounds,
// clustered window — lives in the shared Spec; only what the logical layer
// alone reasons about sits beside it.
type Scan struct {
	Spec  *scanspec.Spec
	Alias string
	// Key is the primary-key position in Spec.Cols (-1 if the table has
	// none); feeds FD reasoning.
	Key int
}

// Schema implements Node.
func (s *Scan) Schema() *types.Schema { return s.Spec.Schema() }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// WithChildren implements Node.
func (s *Scan) WithChildren(ch []Node) Node { return s }

// String implements Node.
func (s *Scan) String() string {
	return fmt.Sprintf("Scan(%s:%s, [%s]%s)", s.Spec.Table, s.Spec.Structure,
		strings.Join(s.Spec.Schema().Names(), ", "), s.Spec.Suffix())
}

// Select filters rows by a predicate over the child's columns.
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

// String implements Node.
func (s *Select) String() string { return "Select(" + s.Pred.String() + ")" }

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

// String implements Node.
func (p *Project) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// JoinKind enumerates logical join types.
type JoinKind uint8

// The join kinds; AntiNull carries NOT IN NULL semantics.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
	JoinSemi
	JoinAnti
	JoinAntiNull
)

// String names the kind.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "inner"
	case JoinLeft:
		return "left"
	case JoinCross:
		return "cross"
	case JoinSemi:
		return "semi"
	case JoinAnti:
		return "anti"
	case JoinAntiNull:
		return "anti-null"
	default:
		return "?"
	}
}

// Join combines two inputs. On references the concatenated left++right
// columns; the optimizer extracts hash keys from equality conjuncts.
type Join struct {
	Kind        JoinKind
	Left, Right Node
	On          expr.Expr // nil for cross
}

// Schema implements Node: semi/anti expose only left columns; left outer
// makes right columns nullable.
func (j *Join) Schema() *types.Schema {
	s := &types.Schema{}
	s.Cols = append(s.Cols, j.Left.Schema().Cols...)
	switch j.Kind {
	case JoinSemi, JoinAnti, JoinAntiNull:
		return s
	case JoinLeft:
		for _, c := range j.Right.Schema().Cols {
			c.Type = c.Type.Null()
			s.Cols = append(s.Cols, c)
		}
		return s
	default:
		s.Cols = append(s.Cols, j.Right.Schema().Cols...)
		return s
	}
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// WithChildren implements Node.
func (j *Join) WithChildren(ch []Node) Node {
	return &Join{Kind: j.Kind, Left: ch[0], Right: ch[1], On: j.On}
}

// String implements Node.
func (j *Join) String() string {
	on := ""
	if j.On != nil {
		on = " on " + j.On.String()
	}
	return "Join(" + j.Kind.String() + on + ")"
}

// AggItem is one aggregate computation over a child column.
type AggItem struct {
	Fn  string // count, sum, min, max, avg
	Col int    // child column; -1 for COUNT(*)
}

// Aggregate groups by child columns and computes aggregates.
type Aggregate struct {
	Child     Node
	GroupCols []int
	Aggs      []AggItem
	Names     []string // names for group cols then aggs
}

// Schema implements Node.
func (a *Aggregate) Schema() *types.Schema {
	in := a.Child.Schema()
	s := &types.Schema{}
	for i, g := range a.GroupCols {
		c := in.Cols[g]
		c.Name = a.Names[i]
		s.Cols = append(s.Cols, c)
	}
	for i, it := range a.Aggs {
		t := aggType(it, in)
		s.Cols = append(s.Cols, types.Col(a.Names[len(a.GroupCols)+i], t))
	}
	return s
}

func aggType(it AggItem, in *types.Schema) types.T {
	switch it.Fn {
	case "count":
		return types.Int64 // never NULL
	case "avg":
		return types.Float64.Null() // NULL over empty groups
	case "sum":
		k := in.Cols[it.Col].Type.Kind
		if k == types.KindFloat64 {
			return types.Float64.Null()
		}
		return types.Int64.Null()
	default: // min, max
		return in.Cols[it.Col].Type.Null()
	}
}

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// WithChildren implements Node.
func (a *Aggregate) WithChildren(ch []Node) Node {
	return &Aggregate{Child: ch[0], GroupCols: a.GroupCols, Aggs: a.Aggs, Names: a.Names}
}

// String implements Node.
func (a *Aggregate) String() string {
	return fmt.Sprintf("Aggregate(groups=%v aggs=%v)", a.GroupCols, a.Aggs)
}

// SortKey orders by one output column.
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

// String implements Node.
func (s *Sort) String() string { return fmt.Sprintf("Sort(%v)", s.Keys) }

// Limit caps output.
type Limit struct {
	Child  Node
	Offset int64
	N      int64 // -1 = no limit (offset only)
}

// Schema implements Node.
func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// WithChildren implements Node.
func (l *Limit) WithChildren(ch []Node) Node {
	return &Limit{Child: ch[0], Offset: l.Offset, N: l.N}
}

// String implements Node.
func (l *Limit) String() string { return fmt.Sprintf("Limit(%d,%d)", l.Offset, l.N) }

// Values is a literal relation (INSERT ... VALUES, constant SELECT).
type Values struct {
	Rows []([]types.Value)
	Cols *types.Schema
}

// Schema implements Node.
func (v *Values) Schema() *types.Schema { return v.Cols }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// WithChildren implements Node.
func (v *Values) WithChildren(ch []Node) Node { return v }

// String implements Node.
func (v *Values) String() string { return fmt.Sprintf("Values(%d rows)", len(v.Rows)) }

// Format renders a plan tree indented.
func Format(n Node) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}
