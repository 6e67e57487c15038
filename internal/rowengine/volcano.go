package rowengine

import (
	"context"
	"fmt"
	"sort"

	"vectorwise/internal/expr"
	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
)

// RowOperator is the classic Volcano iterator: one boxed tuple per Next
// call, with all the per-tuple interpretation overhead that entails. This
// is deliberately the "conventional query engine" of the paper's >10×
// comparison — do not optimize it into something vectorized.
type RowOperator interface {
	// Open prepares the operator.
	Open(ctx context.Context) error
	// Next returns the next row or nil at end of stream.
	Next() ([]types.Value, error)
	// Close releases resources.
	Close()
	// Schema describes the output columns.
	Schema() *types.Schema
}

// TableScan iterates a heap table.
type TableScan struct {
	Table *HeapTable

	ctx     context.Context
	rows    [][]types.Value // snapshot cursor (simple and stable)
	at      int
	counter int
}

// NewTableScan builds a heap scan.
func NewTableScan(t *HeapTable) *TableScan { return &TableScan{Table: t} }

// Schema implements RowOperator.
func (s *TableScan) Schema() *types.Schema { return s.Table.Schema() }

// Open implements RowOperator.
func (s *TableScan) Open(ctx context.Context) error {
	s.ctx = ctx
	s.at = 0
	s.rows = s.rows[:0]
	return s.Table.ScanFunc(func(_ RowID, row []types.Value) bool {
		s.rows = append(s.rows, row)
		return true
	})
}

// Next implements RowOperator.
func (s *TableScan) Next() ([]types.Value, error) {
	s.counter++
	if s.counter&1023 == 0 {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
	}
	if s.at >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.at]
	s.at++
	return r, nil
}

// Close implements RowOperator.
func (s *TableScan) Close() {}

// Filter drops rows whose predicate is not TRUE (NULL-aware three-valued
// logic via the row interpreter).
type Filter struct {
	Child RowOperator
	Pred  expr.Expr
}

// NewFilter builds a filter.
func NewFilter(child RowOperator, pred expr.Expr) *Filter {
	return &Filter{Child: child, Pred: pred}
}

// Schema implements RowOperator.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// Open implements RowOperator.
func (f *Filter) Open(ctx context.Context) error { return f.Child.Open(ctx) }

// Next implements RowOperator.
func (f *Filter) Next() ([]types.Value, error) {
	for {
		row, err := f.Child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		v, err := EvalRow(f.Pred, row)
		if err != nil {
			return nil, err
		}
		if !v.Null && v.Bool() {
			return row, nil
		}
	}
}

// Close implements RowOperator.
func (f *Filter) Close() { f.Child.Close() }

// Map projects expressions per row.
type Map struct {
	Child RowOperator
	Exprs []expr.Expr
	Names []string
	out   []types.Value
}

// NewMap builds a projection.
func NewMap(child RowOperator, exprs []expr.Expr, names []string) *Map {
	return &Map{Child: child, Exprs: exprs, Names: names}
}

// Schema implements RowOperator.
func (m *Map) Schema() *types.Schema {
	s := &types.Schema{}
	for i, e := range m.Exprs {
		name := ""
		if i < len(m.Names) {
			name = m.Names[i]
		}
		s.Cols = append(s.Cols, types.Col(name, e.Type()))
	}
	return s
}

// Open implements RowOperator.
func (m *Map) Open(ctx context.Context) error {
	m.out = make([]types.Value, len(m.Exprs))
	return m.Child.Open(ctx)
}

// Next implements RowOperator.
func (m *Map) Next() ([]types.Value, error) {
	row, err := m.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	for i, e := range m.Exprs {
		v, err := EvalRow(e, row)
		if err != nil {
			return nil, err
		}
		m.out[i] = v
	}
	// Copy: consumers may retain rows (sort, join build).
	out := make([]types.Value, len(m.out))
	copy(out, m.out)
	return out, nil
}

// Close implements RowOperator.
func (m *Map) Close() { m.Child.Close() }

// HashJoinRow is the classic hash join over boxed keys.
type HashJoinRow struct {
	Left, Right         RowOperator
	LeftKeys, RightKeys []int

	table   map[string][][]types.Value
	pending [][]types.Value
	ctx     context.Context
}

// NewHashJoinRow builds an inner hash join.
func NewHashJoinRow(l, r RowOperator, lk, rk []int) *HashJoinRow {
	return &HashJoinRow{Left: l, Right: r, LeftKeys: lk, RightKeys: rk}
}

// Schema implements RowOperator.
func (j *HashJoinRow) Schema() *types.Schema {
	s := &types.Schema{}
	s.Cols = append(s.Cols, j.Left.Schema().Cols...)
	s.Cols = append(s.Cols, j.Right.Schema().Cols...)
	return s
}

// rowKey encodes the key columns of row as a map key. Every NaN formats
// alike, and -0 is encoded as +0, so DOUBLE keys that types.CompareFloat64
// finds equal share a key.
func rowKey(row []types.Value, cols []int) string {
	k := ""
	for _, c := range cols {
		v := row[c]
		if v.Kind == types.KindFloat64 && v.F64 == 0 {
			v.F64 = 0
		}
		k += v.String() + "\x00"
	}
	return k
}

// Open implements RowOperator: builds on the right input.
func (j *HashJoinRow) Open(ctx context.Context) error {
	j.ctx = ctx
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	j.table = make(map[string][][]types.Value)
	for {
		row, err := j.Right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		k := rowKey(row, j.RightKeys)
		j.table[k] = append(j.table[k], row)
	}
	return nil
}

// Next implements RowOperator.
func (j *HashJoinRow) Next() ([]types.Value, error) {
	for {
		if len(j.pending) > 0 {
			out := j.pending[0]
			j.pending = j.pending[1:]
			return out, nil
		}
		lrow, err := j.Left.Next()
		if err != nil || lrow == nil {
			return nil, err
		}
		// NULL and NaN keys never join: SQL = is not true for them.
		noMatch := false
		for _, c := range j.LeftKeys {
			v := lrow[c]
			if v.Null || v.Kind == types.KindFloat64 && v.F64 != v.F64 {
				noMatch = true
			}
		}
		if noMatch {
			continue
		}
		for _, rrow := range j.table[rowKey(lrow, j.LeftKeys)] {
			out := make([]types.Value, 0, len(lrow)+len(rrow))
			out = append(out, lrow...)
			out = append(out, rrow...)
			j.pending = append(j.pending, out)
		}
	}
}

// Close implements RowOperator.
func (j *HashJoinRow) Close() {
	j.Left.Close()
	j.Right.Close()
}

// AggRow is the classic hash aggregation with boxed group keys.
type AggRow struct {
	Child     RowOperator
	GroupCols []int
	Aggs      []RowAggSpec

	groups map[string]*rowGroup
	order  []string
	at     int
	ctx    context.Context
	// overflow ORs the sign-flag word of every integer SUM step, as the
	// vectorized kernels do: negative once any running total has wrapped.
	overflow int64
}

// RowAggSpec mirrors exec.AggSpec for the row engine.
type RowAggSpec struct {
	Fn  string // count, sum, min, max, avg
	Col int
}

type rowGroup struct {
	key    []types.Value
	states []*rowGroup // one state per aggregate (key fields unused there)
	cnt    int64
	sumF   float64
	sumI   int64
	mm     types.Value
	seen   bool
}

// NewAggRow builds an aggregation.
func NewAggRow(child RowOperator, groupCols []int, aggs []RowAggSpec) *AggRow {
	return &AggRow{Child: child, GroupCols: groupCols, Aggs: aggs}
}

// Schema implements RowOperator.
func (a *AggRow) Schema() *types.Schema {
	s := &types.Schema{}
	in := a.Child.Schema()
	for _, g := range a.GroupCols {
		s.Cols = append(s.Cols, in.Cols[g])
	}
	for _, sp := range a.Aggs {
		var t types.T
		switch sp.Fn {
		case "count":
			t = types.Int64
		case "avg":
			t = types.Float64
		case "sum":
			if in.Cols[sp.Col].Type.Kind == types.KindFloat64 {
				t = types.Float64
			} else {
				t = types.Int64
			}
		default:
			t = in.Cols[sp.Col].Type
		}
		s.Cols = append(s.Cols, types.Col(sp.Fn, t))
	}
	return s
}

// Open implements RowOperator.
func (a *AggRow) Open(ctx context.Context) error {
	a.ctx = ctx
	a.groups = nil
	a.order = nil
	a.at = 0
	a.overflow = 0
	return a.Child.Open(ctx)
}

// Next implements RowOperator.
func (a *AggRow) Next() ([]types.Value, error) {
	if a.groups == nil {
		if err := a.consume(); err != nil {
			return nil, err
		}
	}
	if a.at >= len(a.order) {
		return nil, nil
	}
	g := a.groups[a.order[a.at]]
	a.at++
	out := make([]types.Value, 0, len(a.GroupCols)+len(a.Aggs))
	out = append(out, g.key...)
	for i, sp := range a.Aggs {
		st := a.stateOf(g, i)
		switch sp.Fn {
		case "count":
			out = append(out, types.NewInt64(st.cnt))
		case "sum":
			v := types.NewInt64(st.sumI)
			if a.Child.Schema().Cols[sp.Col].Type.Kind == types.KindFloat64 {
				v = types.NewFloat64(st.sumF)
			}
			if !st.seen { // summed no row
				v = types.NewNull(v.Kind)
			}
			out = append(out, v)
		case "avg":
			if st.cnt == 0 {
				out = append(out, types.NewNull(types.KindFloat64))
			} else {
				out = append(out, types.NewFloat64(st.sumF/float64(st.cnt)))
			}
		case "min", "max":
			if !st.seen {
				out = append(out, types.NewNull(a.Child.Schema().Cols[sp.Col].Type.Kind))
			} else {
				out = append(out, st.mm)
			}
		}
	}
	return out, nil
}

// stateOf returns the per-aggregate state; rowGroup holds one state per
// aggregate in a slice indexed by aggregate position.
func (a *AggRow) stateOf(g *rowGroup, i int) *rowGroup {
	return g.states[i]
}

func (a *AggRow) consume() error {
	a.groups = make(map[string]*rowGroup)
	if len(a.GroupCols) == 0 {
		a.ensureGroup("", nil)
	}
	in := a.Child.Schema()
	intSum := make([]bool, len(a.Aggs))
	for i, sp := range a.Aggs {
		intSum[i] = sp.Fn == "sum" && in.Cols[sp.Col].Type.Kind != types.KindFloat64
	}
	n := 0
	for {
		n++
		if n&1023 == 0 {
			if err := a.ctx.Err(); err != nil {
				return err
			}
		}
		row, err := a.Child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			if a.overflow < 0 {
				return fmt.Errorf("rowengine: sum: %w", primitives.ErrOverflow)
			}
			return nil
		}
		key := rowKey(row, a.GroupCols)
		g, ok := a.groups[key]
		if !ok {
			kv := make([]types.Value, len(a.GroupCols))
			for i, c := range a.GroupCols {
				kv[i] = row[c]
			}
			g = a.ensureGroup(key, kv)
		}
		for i, sp := range a.Aggs {
			st := g.states[i]
			var v types.Value
			if sp.Col >= 0 {
				v = row[sp.Col]
				if v.Null {
					continue // SQL aggregates skip NULLs
				}
			}
			switch sp.Fn {
			case "count":
				st.cnt++
			case "sum":
				st.seen = true
				if intSum[i] {
					w := v.AsInt()
					sum := st.sumI + w
					a.overflow |= (st.sumI ^ sum) & (w ^ sum)
					st.sumI = sum
				} else {
					st.sumF += v.AsFloat()
				}
			case "avg":
				st.cnt++
				st.sumF += v.AsFloat()
			case "min":
				if !st.seen || types.Compare(v, st.mm) < 0 {
					st.mm = v
					st.seen = true
				}
			case "max":
				if !st.seen || types.Compare(v, st.mm) > 0 {
					st.mm = v
					st.seen = true
				}
			}
		}
	}
}

func (a *AggRow) ensureGroup(key string, kv []types.Value) *rowGroup {
	g := &rowGroup{key: kv}
	g.states = make([]*rowGroup, len(a.Aggs))
	for i := range g.states {
		g.states[i] = &rowGroup{}
	}
	a.groups[key] = g
	a.order = append(a.order, key)
	return g
}

// Close implements RowOperator.
func (a *AggRow) Close() { a.Child.Close() }

// SortRow materializes and sorts (classic external-sort stand-in).
type SortRow struct {
	Child RowOperator
	Keys  []SortKeyRow
	rows  [][]types.Value
	at    int
}

// SortKeyRow orders by one output column.
type SortKeyRow struct {
	Col  int
	Desc bool
}

// NewSortRow builds a sort.
func NewSortRow(child RowOperator, keys []SortKeyRow) *SortRow {
	return &SortRow{Child: child, Keys: keys}
}

// Schema implements RowOperator.
func (s *SortRow) Schema() *types.Schema { return s.Child.Schema() }

// Open implements RowOperator.
func (s *SortRow) Open(ctx context.Context) error {
	s.rows = nil
	s.at = 0
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	for {
		row, err := s.Child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		s.rows = append(s.rows, row)
	}
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, k := range s.Keys {
			a, b := s.rows[i][k.Col], s.rows[j][k.Col]
			// NULLs sort first.
			switch {
			case a.Null && b.Null:
				continue
			case a.Null:
				return !k.Desc
			case b.Null:
				return k.Desc
			}
			c := types.CompareOrder(a, b)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// Next implements RowOperator.
func (s *SortRow) Next() ([]types.Value, error) {
	if s.at >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.at]
	s.at++
	return r, nil
}

// Close implements RowOperator.
func (s *SortRow) Close() { s.Child.Close() }

// LimitRow caps the stream.
type LimitRow struct {
	Child RowOperator
	N     int64
	seen  int64
}

// NewLimitRow builds a LIMIT.
func NewLimitRow(child RowOperator, n int64) *LimitRow { return &LimitRow{Child: child, N: n} }

// Schema implements RowOperator.
func (l *LimitRow) Schema() *types.Schema { return l.Child.Schema() }

// Open implements RowOperator.
func (l *LimitRow) Open(ctx context.Context) error { l.seen = 0; return l.Child.Open(ctx) }

// Next implements RowOperator.
func (l *LimitRow) Next() ([]types.Value, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	row, err := l.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	l.seen++
	return row, nil
}

// Close implements RowOperator.
func (l *LimitRow) Close() { l.Child.Close() }

// CollectRows drains a row plan.
func CollectRows(ctx context.Context, op RowOperator) ([][]types.Value, error) {
	if err := op.Open(ctx); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()
	var out [][]types.Value
	for {
		row, err := op.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}
