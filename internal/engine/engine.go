// Package engine is the product: it wires the full Figure-1 pipeline —
// SQL parser → binder → optimizer → cross compiler → Vectorwise rewriter →
// vectorized kernel — around a catalog offering both table structures the
// paper describes: VECTORWISE (compressed column store + PDT transactions,
// for OLAP) and HEAP (classic slotted-page row store, for OLTP-style
// access).
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"vectorwise/internal/colstore"
	"vectorwise/internal/expr"
	"vectorwise/internal/fsim"
	"vectorwise/internal/metrics"
	"vectorwise/internal/monitor"
	"vectorwise/internal/optimizer"
	"vectorwise/internal/physical"
	"vectorwise/internal/plan"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/rowengine"
	"vectorwise/internal/sql"
	"vectorwise/internal/txn"
	"vectorwise/internal/types"
	"vectorwise/internal/wal"
)

// DB is a database instance: the shared storage/compile core that sessions
// (internal/session), the shell, and the server are all clients of.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*tableEntry
	stats   map[string]map[string]*optimizer.ColStats
	Monitor *monitor.Monitor
	// Parallel is the default degree of parallelism for queries (can be
	// overridden per query via WITH (PARALLEL=n)).
	Parallel int
	// VectorSize overrides the default vector length (0 = vec.DefaultSize);
	// experiment E2's knob.
	VectorSize int
	// BufferGroups is the per-table buffer-manager capacity in row groups
	// (0 = DefaultBufferGroups). Small values make policy differences
	// visible; production leaves the default.
	BufferGroups int
	// SessionSource, when set by the session layer, supplies sys.sessions
	// rows.
	SessionSource func() []SessionInfo

	shareMu sync.Mutex
	shares  map[string]*scanShare

	// Durability (nil/zero for in-memory databases; see durable.go).
	fs          fsim.FS
	dir         string
	log         *wal.WAL
	manifestMu  sync.Mutex // guards man and its file; a leaf lock, taken after db.mu / store locks
	man         *manifest
	quarantined map[string]error // table -> open failure (checksum)
}

// SessionInfo is one row of sys.sessions, reported by the session layer.
type SessionInfo struct {
	ID       int64
	State    string // "idle" | "active" | "queued"
	Queries  int64  // statements executed so far
	Active   int64  // statements currently running
	Reserved int64  // bytes of admission budget currently reserved
	AgeMS    float64
}

type tableEntry struct {
	meta *plan.TableMeta
	// Exactly one of the following is set, per meta.Structure.
	store *txn.Store           // "vectorwise"
	heap  *rowengine.HeapTable // "heap"
}

// Open creates an empty in-memory database.
func Open() *DB {
	return &DB{
		tables:      map[string]*tableEntry{},
		stats:       map[string]map[string]*optimizer.ColStats{},
		shares:      map[string]*scanShare{},
		quarantined: map[string]error{},
		Monitor:     monitor.New(2048),
	}
}

// Result is a statement outcome.
type Result struct {
	Cols     []string
	Rows     [][]types.Value
	Affected int64
	Text     string // EXPLAIN / SHOW output
}

// ctxKey keys engine-internal context values.
type ctxKey int

// parseSpanKey carries the parse-phase span from Exec (which owns parsing)
// to execSelect (which owns the monitor record) without widening the public
// ExecStmt signature. queryBudgetKey carries the session layer's per-query
// memory budget the same way.
const (
	parseSpanKey ctxKey = iota
	queryBudgetKey
)

func parseSpanFrom(ctx context.Context) (monitor.Span, bool) {
	sp, ok := ctx.Value(parseSpanKey).(monitor.Span)
	return sp, ok
}

// WithQueryBudget caps the bytes the query run under ctx may materialize in
// sorts, join builds, and aggregation tables (0 = unlimited).
func WithQueryBudget(ctx context.Context, bytes int64) context.Context {
	if bytes <= 0 {
		return ctx
	}
	return context.WithValue(ctx, queryBudgetKey, bytes)
}

func queryBudgetFrom(ctx context.Context) int64 {
	n, _ := ctx.Value(queryBudgetKey).(int64)
	return n
}

// Exec parses and executes one statement.
func (db *DB) Exec(ctx context.Context, query string) (*Result, error) {
	t := time.Now()
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	ctx = context.WithValue(ctx, parseSpanKey,
		monitor.Span{Phase: "parse", Start: t, Dur: time.Since(t)})
	return db.ExecStmt(ctx, stmt, query)
}

// ExecScript executes a semicolon-separated script, returning the last
// statement's result.
func (db *DB) ExecScript(ctx context.Context, script string) (*Result, error) {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		last, err = db.ExecStmt(ctx, s, "")
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecStmt executes a parsed statement.
func (db *DB) ExecStmt(ctx context.Context, stmt sql.Stmt, text string) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return db.execSelect(ctx, s, text)
	case *sql.CreateTableStmt:
		return db.execCreate(s)
	case *sql.DropTableStmt:
		return db.execDrop(s)
	case *sql.InsertStmt:
		return db.execInsert(ctx, s)
	case *sql.UpdateStmt:
		return db.execUpdate(ctx, s, text)
	case *sql.DeleteStmt:
		return db.execDelete(ctx, s, text)
	case *sql.CopyStmt:
		return db.execCopy(ctx, s)
	case *sql.AnalyzeStmt:
		return db.execAnalyze(ctx, s)
	case *sql.CheckpointStmt:
		return db.execCheckpoint(s)
	case *sql.ExplainStmt:
		return db.execExplain(ctx, s)
	case *sql.ShowStmt:
		return db.execShow(s)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// --- catalog ---

// ResolveTable implements plan.Catalog.
func (db *DB) ResolveTable(name string) (*plan.TableMeta, error) {
	if meta := sysTableMeta(name); meta != nil {
		return meta, nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.tables[name]
	if !ok {
		if qerr, qok := db.quarantined[name]; qok {
			return nil, fmt.Errorf("engine: table %q is quarantined: %v", name, qerr)
		}
		return nil, fmt.Errorf("engine: no table %q", name)
	}
	return e.meta, nil
}

// TableRows implements optimizer.Stats.
func (db *DB) TableRows(table string) int64 {
	db.mu.RLock()
	e, ok := db.tables[table]
	db.mu.RUnlock()
	if !ok {
		return -1
	}
	if e.store != nil {
		return e.store.Rows()
	}
	return e.heap.Rows()
}

// Column implements optimizer.Stats.
func (db *DB) Column(table, col string) *optimizer.ColStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if m, ok := db.stats[table]; ok {
		return m[col]
	}
	return nil
}

// ColumnBounds implements optimizer.SummaryStats: global min/max folded
// from the column store's block summaries, the estimation fallback when
// ANALYZE has not run. NULL positions hold in-band safe values, which can
// only widen the bounds — fine for selectivity estimates.
func (db *DB) ColumnBounds(table, col string) (types.Value, types.Value, bool) {
	e, err := db.entry(table)
	if err != nil || e.store == nil {
		return types.Value{}, types.Value{}, false
	}
	stable := e.store.Stable()
	idx := stable.Schema().Find(col)
	if idx < 0 {
		return types.Value{}, types.Value{}, false
	}
	return stable.ColumnSummary(idx)
}

// ClusteredWindow implements optimizer.ClusterStats: when col is clustered
// (groups sorted and disjoint — a clustered bulk load guarantees this), a
// binary search over the ordered zone maps yields the contiguous group
// interval [lo, hi) that can contain values in [loV, hiV].
func (db *DB) ClusteredWindow(table, col string, loV, hiV *types.Value) (lo, hi, total int, ok bool) {
	e, err := db.entry(table)
	if err != nil || e.store == nil {
		return 0, 0, 0, false
	}
	stable := e.store.Stable()
	idx := stable.Schema().Find(col)
	if idx < 0 || !stable.Clustered(idx) {
		return 0, 0, 0, false
	}
	total = stable.NumBlocks()
	if total == 0 {
		return 0, 0, 0, false
	}
	lo, hi = stable.ClusteredWindow([]colstore.RangeFilter{{Col: idx, Lo: loV, Hi: hiV}})
	return lo, hi, total, true
}

// Store returns a vectorwise table's transactional store (tests, benches).
func (db *DB) Store(name string) (*txn.Store, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.tables[name]
	if !ok || e.store == nil {
		if qerr, qok := db.quarantined[name]; qok {
			return nil, fmt.Errorf("engine: table %q is quarantined: %v", name, qerr)
		}
		return nil, fmt.Errorf("engine: no vectorwise table %q", name)
	}
	return e.store, nil
}

// Heap returns a heap table's storage (tests, benches).
func (db *DB) Heap(name string) (*rowengine.HeapTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.tables[name]
	if !ok || e.heap == nil {
		return nil, fmt.Errorf("engine: no heap table %q", name)
	}
	return e.heap, nil
}

// --- DDL ---

func (db *DB) execCreate(s *sql.CreateTableStmt) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[s.Name]; exists {
		return nil, fmt.Errorf("engine: table %q already exists", s.Name)
	}
	if qerr, ok := db.quarantined[s.Name]; ok {
		return nil, fmt.Errorf("engine: table %q exists but is quarantined (drop it first): %v", s.Name, qerr)
	}
	logical := &types.Schema{}
	key := -1
	for i, c := range s.Cols {
		if logical.Find(c.Name) >= 0 {
			return nil, fmt.Errorf("engine: duplicate column %q", c.Name)
		}
		logical.Cols = append(logical.Cols, types.Col(c.Name, c.Type))
		if c.PrimaryKey {
			if key >= 0 {
				return nil, fmt.Errorf("engine: multiple primary keys")
			}
			key = i
		}
	}
	meta := &plan.TableMeta{Name: s.Name, Schema: logical, Structure: s.Structure, Key: key}
	e := &tableEntry{meta: meta}
	switch s.Structure {
	case "vectorwise":
		phys := rewriter.PhysicalSchema(logical)
		e.store = txn.NewStore(colstore.NewTable(phys))
	case "heap":
		heapKey := -1
		if key >= 0 && logical.Cols[key].Type.Kind.Integral() {
			heapKey = key
		}
		e.heap = rowengine.NewHeapTable(logical, heapKey)
	default:
		return nil, fmt.Errorf("engine: unknown structure %q", s.Structure)
	}
	if db.durable() {
		if err := db.createDurable(meta); err != nil {
			return nil, err
		}
		if e.store != nil {
			e.store.SetDurable(db.log, s.Name, db.persistFor(s.Name))
		}
	}
	db.tables[s.Name] = e
	db.Monitor.Log(monitor.EvDDL, "create table %s (%s)", s.Name, s.Structure)
	return &Result{Text: "CREATE TABLE"}, nil
}

func (db *DB) execDrop(s *sql.DropTableStmt) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, known := db.tables[s.Name]
	_, isQuarantined := db.quarantined[s.Name]
	if !known && !isQuarantined {
		return nil, fmt.Errorf("engine: no table %q", s.Name)
	}
	// Dropping a quarantined table is the operator's way to discard a
	// corrupt stable file and reclaim the name.
	if db.durable() {
		if err := db.dropDurable(s.Name); err != nil {
			return nil, err
		}
	}
	delete(db.tables, s.Name)
	delete(db.stats, s.Name)
	delete(db.quarantined, s.Name)
	db.Monitor.Log(monitor.EvDDL, "drop table %s", s.Name)
	return &Result{Text: "DROP TABLE"}, nil
}

func (db *DB) execCheckpoint(s *sql.CheckpointStmt) (*Result, error) {
	store, err := db.Store(s.Table)
	if err != nil {
		return nil, err
	}
	if err := store.Checkpoint(); err != nil {
		return nil, err
	}
	db.Monitor.Log(monitor.EvCheckpoint, "checkpoint %s", s.Table)
	return &Result{Text: "CHECKPOINT"}, nil
}

func (db *DB) execShow(s *sql.ShowStmt) (*Result, error) {
	switch s.What {
	case "tables":
		db.mu.RLock()
		var names []string
		for n := range db.tables {
			names = append(names, n)
		}
		db.mu.RUnlock()
		sort.Strings(names)
		res := &Result{Cols: []string{"table", "structure", "rows"}}
		for _, n := range names {
			e := db.tables[n]
			res.Rows = append(res.Rows, []types.Value{
				types.NewString(n),
				types.NewString(e.meta.Structure),
				types.NewInt64(db.TableRows(n)),
			})
		}
		return res, nil
	case "queries":
		res := &Result{Cols: []string{"id", "status", "duration", "sql"}}
		for _, qi := range db.Monitor.Active() {
			res.Rows = append(res.Rows, []types.Value{
				types.NewInt64(qi.ID),
				types.NewString(string(qi.Status)),
				types.NewString(qi.Duration.String()),
				types.NewString(qi.SQL),
			})
		}
		return res, nil
	case "metrics":
		res := &Result{Cols: []string{"name", "kind", "value"}}
		for _, sm := range metrics.Default.Snapshot() {
			res.Rows = append(res.Rows, []types.Value{
				types.NewString(sm.Name),
				types.NewString(sm.Kind),
				types.NewFloat64(sm.Value),
			})
		}
		return res, nil
	case "events":
		res := &Result{Cols: []string{"time", "kind", "msg"}}
		for _, ev := range db.Monitor.Events() {
			res.Rows = append(res.Rows, []types.Value{
				types.NewString(ev.Time.Format("2006-01-02 15:04:05.000")),
				types.NewString(string(ev.Kind)),
				types.NewString(ev.Msg),
			})
		}
		return res, nil
	}
	return nil, fmt.Errorf("engine: SHOW %q", s.What)
}

// CancelQuery aborts a running query by monitor ID.
func (db *DB) CancelQuery(id int64) bool { return db.Monitor.Cancel(id) }

// --- DML helpers ---

// bindRowExprs evaluates a VALUES row into typed column values. Each value
// is folded by the kernel programs a query runs (expr.Fold), so a bad value
// fails with the runtime's error.
func bindRowExprs(b *plan.Binder, meta *plan.TableMeta, row []sql.ExprNode) ([]types.Value, error) {
	if len(row) != meta.Schema.Len() {
		return nil, fmt.Errorf("engine: INSERT arity %d, want %d", len(row), meta.Schema.Len())
	}
	out := make([]types.Value, len(row))
	for i, en := range row {
		col := meta.Schema.Cols[i]
		bound, err := b.BindExprNoCols(en)
		if err != nil {
			return nil, err
		}
		v, err := expr.Fold(bound)
		if err != nil {
			return nil, err
		}
		cv, err := coerceValue(v, col.Type)
		if err != nil {
			return nil, fmt.Errorf("engine: column %q: %w", col.Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// coerceValue converts a literal to a column type.
func coerceValue(v types.Value, t types.T) (types.Value, error) {
	if v.Null {
		if !t.Nullable {
			return types.Value{}, fmt.Errorf("NULL into NOT NULL column")
		}
		return types.NewNull(t.Kind), nil
	}
	if v.Kind == t.Kind {
		return v, nil
	}
	switch {
	case t.Kind == types.KindFloat64 && v.Kind.Numeric():
		return types.NewFloat64(v.AsFloat()), nil
	case t.Kind == types.KindInt64 && v.Kind.Integral():
		return types.NewInt64(v.AsInt()), nil
	case t.Kind == types.KindInt32 && v.Kind.Integral():
		i := v.AsInt()
		if i != int64(int32(i)) {
			return types.Value{}, fmt.Errorf("value %d overflows INTEGER", i)
		}
		return types.NewInt32(int32(i)), nil
	case t.Kind == types.KindDate && v.Kind == types.KindString:
		d, err := types.ParseDate(v.Str)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewDate(d), nil
	}
	return types.Value{}, fmt.Errorf("cannot store %v into %v", v.Kind, t.Kind)
}

// physicalToLogicalRow reassembles NULLs from a physical row.
func physicalToLogicalRow(logical *types.Schema, cm rewriter.ColMap, phys []types.Value) []types.Value {
	out := make([]types.Value, logical.Len())
	for i := range out {
		if cm.Ind[i] >= 0 && phys[cm.Ind[i]].Bool() {
			out[i] = types.NewNull(logical.Cols[i].Type.Kind)
		} else {
			v := phys[cm.Val[i]]
			if logical.Cols[i].Type.Kind == types.KindDate && v.Kind != types.KindDate {
				v = types.NewDate(int32(v.I64))
			}
			out[i] = v
		}
	}
	return out
}

func (db *DB) entry(name string) (*tableEntry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.tables[name]
	if !ok {
		if qerr, qok := db.quarantined[name]; qok {
			return nil, fmt.Errorf("engine: table %q is quarantined: %v", name, qerr)
		}
		return nil, fmt.Errorf("engine: no table %q", name)
	}
	return e, nil
}

func (db *DB) execInsert(ctx context.Context, s *sql.InsertStmt) (*Result, error) {
	e, err := db.entry(s.Table)
	if err != nil {
		return nil, err
	}
	var rows [][]types.Value
	if s.Query != nil {
		res, err := db.execSelect(ctx, s.Query, "")
		if err != nil {
			return nil, err
		}
		if len(res.Cols) != e.meta.Schema.Len() {
			return nil, fmt.Errorf("engine: INSERT SELECT arity %d, want %d", len(res.Cols), e.meta.Schema.Len())
		}
		for _, r := range res.Rows {
			cr := make([]types.Value, len(r))
			for i, v := range r {
				cv, err := coerceValue(v, e.meta.Schema.Cols[i].Type)
				if err != nil {
					return nil, err
				}
				cr[i] = cv
			}
			rows = append(rows, cr)
		}
	} else {
		b := db.binder()
		for _, rexprs := range s.Rows {
			row, err := bindRowExprs(b, e.meta, rexprs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	switch {
	case e.heap != nil:
		for _, r := range rows {
			if _, err := e.heap.Insert(r); err != nil {
				return nil, err
			}
		}
	default:
		tx := e.store.Begin()
		for _, r := range rows {
			if err := tx.InsertRow(physical.DecomposeRow(e.meta.Schema, r)); err != nil {
				tx.Abort()
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: int64(len(rows))}, nil
}

func (db *DB) binder() *plan.Binder {
	return &plan.Binder{Cat: db, EvalScalarSub: func(sub *sql.SelectStmt) (types.Value, error) {
		res, err := db.execSelect(context.Background(), sub, "")
		if err != nil {
			return types.Value{}, err
		}
		if len(res.Cols) != 1 {
			return types.Value{}, fmt.Errorf("engine: scalar subquery must return one column")
		}
		switch len(res.Rows) {
		case 0:
			return types.NewNull(types.KindInvalid), fmt.Errorf("engine: scalar subquery returned no rows")
		case 1:
			return res.Rows[0][0], nil
		default:
			return types.Value{}, fmt.Errorf("engine: scalar subquery returned %d rows", len(res.Rows))
		}
	}}
}

// FormatResult renders a result as an aligned text table (the shell uses
// it).
func FormatResult(r *Result) string {
	if r.Text != "" {
		return r.Text
	}
	if len(r.Cols) == 0 {
		return fmt.Sprintf("OK, %d rows affected\n", r.Affected)
	}
	var b strings.Builder
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range r.Cols {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range r.Cols {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(r.Rows))
	return b.String()
}
