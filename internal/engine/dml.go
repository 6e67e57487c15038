package engine

import (
	"context"
	"fmt"
	"time"

	"vectorwise/internal/expr"
	"vectorwise/internal/physical"
	"vectorwise/internal/plan"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/rowengine"
	"vectorwise/internal/sql"
	"vectorwise/internal/txn"
	"vectorwise/internal/types"
)

// UPDATE and DELETE. On a vectorwise table the rows are found by a query:
// the WHERE is compiled like any SELECT's (range extraction, column pruning,
// NULL decomposition, the vectorized kernel) over a scan that also projects
// each row's image position, the plan runs inside the statement's own
// transaction, and its output feeds txn.UpdateAt / DeleteAt. Heap tables,
// which have no positional deltas, keep the tuple-at-a-time matcher.

// match is the compiled row search of an UPDATE or DELETE on a vectorwise
// table. The plan emits, per matched row, the image position and then the
// table columns emit lists.
type match struct {
	*compiled
	meta *plan.TableMeta
	// sets maps a SET target (table column) to its expression over the
	// table's logical schema; emit is every column those expressions read or
	// write, ascending.
	sets map[int]expr.Expr
	emit []int
}

// compileMatch binds the SET clauses and compiles the row search. DML plans
// are serial: positions come from one stream in image order.
func (db *DB) compileMatch(meta *plan.TableMeta, where sql.ExprNode, set []sql.SetClause) (*match, error) {
	m := &match{meta: meta}
	c, err := db.compile(1, func(b *plan.Binder) (plan.Node, error) {
		var err error
		if m.sets, err = bindSets(b, meta, set); err != nil {
			return nil, err
		}
		need := make([]bool, meta.Schema.Len())
		for col, e := range m.sets {
			need[col] = true
			for _, c := range expr.Cols(e) {
				need[c] = true
			}
		}
		for c, on := range need {
			if on {
				m.emit = append(m.emit, c)
			}
		}
		return b.BindMatch(meta, where, m.emit)
	})
	if err != nil {
		return nil, err
	}
	m.compiled = c
	return m, nil
}

// run executes the row search in tx and returns the plan's output rows. The
// rows (positions included) are charged to the query's memory budget as they
// are collected: an unfiltered UPDATE holds the whole table's worth of them
// until it has applied the last.
func (m *match) run(ctx context.Context, db *DB, tx *txn.Txn, profile bool) ([][]types.Value, *physical.Instance, error) {
	session := newQuerySession(db, ctx)
	session.readThrough(m.meta.Name, tx)
	defer session.close()
	return db.collect(ctx, m.compiled, session, 0, profile, true)
}

// execute is the life of a vectorwise UPDATE or DELETE: a registered query
// whose transaction finds the rows, hands them to apply, and commits. Any
// error — in the search, in apply, at commit — leaves the table untouched.
func (m *match) execute(ctx context.Context, db *DB, store *txn.Store, text string,
	apply func(tx *txn.Txn, rows [][]types.Value) error) (*Result, error) {
	var affected int64
	err := db.monitored(ctx, text, m.compiled, func(qctx context.Context) (int64, error) {
		tx := store.Begin()
		rows, _, err := m.run(qctx, db, tx, false)
		if err == nil {
			err = apply(tx, rows)
		}
		if err == nil {
			err = qctx.Err() // cancelled after the last vector: still not committed
		}
		if err != nil {
			tx.Abort()
			return 0, err
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
		affected = int64(len(rows))
		return affected, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: affected}, nil
}

// explainMatch is EXPLAIN [PHYSICAL] and PROFILE for UPDATE/DELETE: the plan
// of the row search, and for PROFILE a run of it in a transaction that is
// then aborted, so nothing is applied.
func (db *DB) explainMatch(ctx context.Context, s *sql.ExplainStmt, table string, where sql.ExprNode, set []sql.SetClause) (*Result, error) {
	e, err := db.entry(table)
	if err != nil {
		return nil, err
	}
	if e.store == nil {
		return nil, fmt.Errorf("engine: EXPLAIN UPDATE/DELETE needs a vectorwise table (%s is heap: its rows are matched one at a time, without a plan)", table)
	}
	m, err := db.compileMatch(e.meta, where, set)
	if err != nil {
		return nil, err
	}
	text := explainText(m.compiled, s.Physical)
	if s.Profile {
		t := time.Now()
		tx := e.store.Begin()
		rows, inst, err := m.run(ctx, db, tx, true)
		tx.Abort()
		if err != nil {
			return nil, err
		}
		text += profileText(ctx, m.compiled, t, fmt.Sprintf("%d rows matched (not applied)", len(rows)), inst)
	}
	return &Result{Text: text}, nil
}

func (db *DB) execUpdate(ctx context.Context, s *sql.UpdateStmt, text string) (*Result, error) {
	e, err := db.entry(s.Table)
	if err != nil {
		return nil, err
	}
	if e.heap != nil {
		return db.updateHeap(e, s)
	}
	m, err := db.compileMatch(e.meta, s.Where, s.Set)
	if err != nil {
		return nil, err
	}
	return m.execute(ctx, db, e.store, text, m.applyUpdates)
}

// applyUpdates evaluates SET on every matched row and records a positional
// modify for each column whose value changes.
func (m *match) applyUpdates(tx *txn.Txn, rows [][]types.Value) error {
	schema := m.meta.Schema
	cm := rewriter.PhysicalColMap(schema)
	// SET expressions address the table's full row; only the emitted columns
	// of it are filled, which is all they read.
	old := make([]types.Value, schema.Len())
	for _, r := range rows {
		rid := r[0].I64
		for k, col := range m.emit {
			old[col] = r[1+k]
		}
		nr, err := applySets(m.meta, m.sets, old)
		if err != nil {
			return err
		}
		for _, col := range m.emit {
			if nr[col].Null == old[col].Null && (nr[col].Null || types.Equal(nr[col], old[col])) {
				continue // unchanged (a NULL that stays NULL included): not written
			}
			colT := schema.Cols[col].Type
			val, null := nr[col], nr[col].Null
			if null {
				// Store the in-band safe value with the indicator, as inserts
				// do: NULL group keys are one group only if the pair is uniform.
				val = types.SafeValue(colT.Kind)
			}
			if err := tx.UpdateAt(rid, cm.Val[col], val); err != nil {
				return err
			}
			if colT.Nullable {
				if err := tx.UpdateAt(rid, cm.Ind[col], types.NewBool(null)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (db *DB) execDelete(ctx context.Context, s *sql.DeleteStmt, text string) (*Result, error) {
	e, err := db.entry(s.Table)
	if err != nil {
		return nil, err
	}
	if e.heap != nil {
		return db.deleteHeap(e, s)
	}
	m, err := db.compileMatch(e.meta, s.Where, nil)
	if err != nil {
		return nil, err
	}
	return m.execute(ctx, db, e.store, text, func(tx *txn.Txn, rows [][]types.Value) error {
		// Delete from the highest position down so earlier positions stay
		// valid.
		for i := len(rows) - 1; i >= 0; i-- {
			if err := tx.DeleteAt(rows[i][0].I64); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- heap tables: tuple-at-a-time matching ---

func (db *DB) updateHeap(e *tableEntry, s *sql.UpdateStmt) (*Result, error) {
	b := db.binder()
	pred, err := bindPred(b, e.meta, s.Where)
	if err != nil {
		return nil, err
	}
	sets, err := bindSets(b, e.meta, s.Set)
	if err != nil {
		return nil, err
	}
	rids, rows, err := heapMatches(e.heap, pred)
	if err != nil {
		return nil, err
	}
	// Evaluate every SET before touching the heap: an error applies nothing.
	for i, row := range rows {
		if rows[i], err = applySets(e.meta, sets, row); err != nil {
			return nil, err
		}
	}
	for i, rid := range rids {
		if _, err := e.heap.Update(rid, rows[i]); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: int64(len(rids))}, nil
}

func (db *DB) deleteHeap(e *tableEntry, s *sql.DeleteStmt) (*Result, error) {
	pred, err := bindPred(db.binder(), e.meta, s.Where)
	if err != nil {
		return nil, err
	}
	rids, _, err := heapMatches(e.heap, pred)
	if err != nil {
		return nil, err
	}
	for _, rid := range rids {
		if err := e.heap.Delete(rid); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: int64(len(rids))}, nil
}

// heapMatches returns the rows of a heap table that pred accepts (all of them
// for a nil pred). A predicate that fails on any row fails the search: the
// statement must not quietly act on the rows that happened to evaluate.
func heapMatches(h *rowengine.HeapTable, pred expr.Expr) ([]rowengine.RowID, [][]types.Value, error) {
	var rids []rowengine.RowID
	var rows [][]types.Value
	var evalErr error
	err := h.ScanFunc(func(rid rowengine.RowID, row []types.Value) bool {
		if pred != nil {
			v, err := expr.EvalRow(pred, row)
			if err != nil {
				evalErr = err
				return false
			}
			if v.Null || !v.Bool() {
				return true
			}
		}
		rids = append(rids, rid)
		rows = append(rows, row)
		return true
	})
	if err == nil {
		err = evalErr
	}
	if err != nil {
		return nil, nil, err
	}
	return rids, rows, nil
}

// bindPred binds a heap DML's WHERE over the table's logical schema (nil
// when there is none).
func bindPred(b *plan.Binder, meta *plan.TableMeta, where sql.ExprNode) (expr.Expr, error) {
	if where == nil {
		return nil, nil
	}
	pred, err := b.BindExprOver(meta.Schema, where)
	if err != nil {
		return nil, err
	}
	if pred.Type().Kind != types.KindBool {
		return nil, fmt.Errorf("engine: WHERE must be boolean")
	}
	return pred, nil
}

// bindSets binds SET clauses over the table's logical schema, keyed by target
// column.
func bindSets(b *plan.Binder, meta *plan.TableMeta, set []sql.SetClause) (map[int]expr.Expr, error) {
	sets := map[int]expr.Expr{}
	for _, sc := range set {
		idx := meta.Schema.Find(sc.Col)
		if idx < 0 {
			return nil, fmt.Errorf("engine: no column %q", sc.Col)
		}
		e, err := b.BindExprOver(meta.Schema, sc.Expr)
		if err != nil {
			return nil, err
		}
		sets[idx] = e
	}
	return sets, nil
}

// applySets returns row with every SET target replaced by its expression's
// value over row, coerced to the column type.
func applySets(meta *plan.TableMeta, sets map[int]expr.Expr, row []types.Value) ([]types.Value, error) {
	out := make([]types.Value, len(row))
	copy(out, row)
	for col, e := range sets {
		v, err := expr.EvalRow(e, row)
		if err != nil {
			return nil, err
		}
		cv, err := coerceValue(v, meta.Schema.Cols[col].Type)
		if err != nil {
			return nil, err
		}
		out[col] = cv
	}
	return out, nil
}
