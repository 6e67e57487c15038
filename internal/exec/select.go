package exec

import (
	"vectorwise/internal/expr"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// Select filters its input with a compiled selection program; it never
// copies data — qualifying rows are described by a selection vector.
type Select struct {
	Child Operator
	Pred  expr.Expr

	ctx    *Ctx
	filter *expr.Filter
	out    vec.Batch
}

// NewSelect builds a filter operator.
func NewSelect(child Operator, pred expr.Expr) *Select {
	return &Select{Child: child, Pred: pred}
}

// Kinds implements Operator.
func (s *Select) Kinds() []types.Kind { return s.Child.Kinds() }

// Open implements Operator.
func (s *Select) Open(ctx *Ctx) error {
	s.ctx = ctx
	f, err := expr.CompileFilter(s.Pred, s.Child.Kinds())
	if err != nil {
		return err
	}
	s.filter = f
	return s.Child.Open(ctx)
}

// Next implements Operator.
func (s *Select) Next() (*vec.Batch, error) {
	for {
		b, err := s.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		sel, err := s.filter.Apply(b)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			continue
		}
		s.out = *b
		s.out.Sel = sel
		return &s.out, nil
	}
}

// Close implements Operator.
func (s *Select) Close() { s.Child.Close() }

// Project evaluates expressions over its input; column references alias
// input vectors (zero copy), computed expressions land in evaluator
// registers. The output carries the input's selection vector.
type Project struct {
	Child Operator
	Exprs []expr.Expr

	ctx   *Ctx
	evals []*expr.Evaluator
	// direct[i] >= 0 marks pure column references passed through by alias.
	direct []int
	kinds  []types.Kind
	out    vec.Batch
}

// NewProject builds a projection.
func NewProject(child Operator, exprs []expr.Expr) *Project {
	p := &Project{Child: child, Exprs: exprs}
	p.kinds = make([]types.Kind, len(exprs))
	for i, e := range exprs {
		p.kinds[i] = e.Type().Kind
	}
	return p
}

// Kinds implements Operator.
func (p *Project) Kinds() []types.Kind { return p.kinds }

// Open implements Operator.
func (p *Project) Open(ctx *Ctx) error {
	p.ctx = ctx
	inKinds := p.Child.Kinds()
	p.evals = make([]*expr.Evaluator, len(p.Exprs))
	p.direct = make([]int, len(p.Exprs))
	for i, e := range p.Exprs {
		if c, ok := e.(*expr.ColRef); ok {
			p.direct[i] = c.Idx
			continue
		}
		p.direct[i] = -1
		ev, err := expr.Compile(e, inKinds)
		if err != nil {
			return err
		}
		p.evals[i] = ev
	}
	p.out.Vecs = make([]*vec.Vector, len(p.Exprs))
	return p.Child.Open(ctx)
}

// Next implements Operator.
func (p *Project) Next() (*vec.Batch, error) {
	b, err := p.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	for i := range p.Exprs {
		if d := p.direct[i]; d >= 0 {
			p.out.Vecs[i] = b.Vecs[d]
			continue
		}
		v, err := p.evals[i].Eval(b)
		if err != nil {
			return nil, err
		}
		p.out.Vecs[i] = v
	}
	p.out.Sel = b.Sel
	p.out.ForceLen(b.Full())
	return &p.out, nil
}

// Close implements Operator.
func (p *Project) Close() { p.Child.Close() }

// Limit passes through the first N logical rows (after an optional offset).
type Limit struct {
	Child  Operator
	Offset int64
	N      int64

	ctx     *Ctx
	skipped int64
	emitted int64
	out     vec.Batch
	selBuf  []int32
}

// NewLimit builds LIMIT n OFFSET off.
func NewLimit(child Operator, offset, n int64) *Limit {
	return &Limit{Child: child, Offset: offset, N: n}
}

// Kinds implements Operator.
func (l *Limit) Kinds() []types.Kind { return l.Child.Kinds() }

// Open implements Operator.
func (l *Limit) Open(ctx *Ctx) error {
	l.ctx = ctx
	l.skipped, l.emitted = 0, 0
	return l.Child.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next() (*vec.Batch, error) {
	for {
		if l.N >= 0 && l.emitted >= l.N {
			return nil, nil
		}
		b, err := l.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		rows := int64(b.Rows())
		// Skip offset rows.
		drop := int64(0)
		if l.skipped < l.Offset {
			drop = l.Offset - l.skipped
			if drop > rows {
				l.skipped += rows
				continue
			}
			l.skipped += drop
		}
		take := rows - drop
		if l.N >= 0 && take > l.N-l.emitted {
			take = l.N - l.emitted
		}
		if take <= 0 {
			continue
		}
		l.emitted += take
		if drop == 0 && take == rows {
			return b, nil
		}
		// Narrow via selection vector.
		l.selBuf = l.selBuf[:0]
		for i := drop; i < drop+take; i++ {
			l.selBuf = append(l.selBuf, int32(b.RowIndex(int(i))))
		}
		l.out = *b
		l.out.Sel = l.selBuf
		return &l.out, nil
	}
}

// Close implements Operator.
func (l *Limit) Close() { l.Child.Close() }
