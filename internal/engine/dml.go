package engine

import (
	"context"
	"fmt"
	"time"

	"vectorwise/internal/physical"
	"vectorwise/internal/plan"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/rowengine"
	"vectorwise/internal/sql"
	"vectorwise/internal/txn"
	"vectorwise/internal/types"
)

// UPDATE and DELETE, on both table structures. The rows are found and the
// new SET values computed by a query: WHERE and SET are compiled like any
// SELECT's (range extraction, NULL decomposition, column pruning, the
// vectorized kernel) over a scan that also projects each row's id, and the
// plan runs as a monitored, budgeted, cancellable statement. Only applying its
// output differs. On a vectorwise table the plan runs inside the statement's
// own transaction and feeds txn.UpdateAt / DeleteAt, writing only the values
// that change; on a heap table, once the search has finished, whole new rows
// replace the old ones (HeapTable.UpdateRows) or rows are deleted by RowID.

// match is the compiled row search of an UPDATE or DELETE. The plan emits,
// per matched row, its row id, the old values the apply step needs (every
// column on a heap table, the SET targets on a vectorwise one) and the new
// value of each SET target.
type match struct {
	*compiled
	e *tableEntry
	// targets are the SET target columns, in the order the plan emits their
	// new values: the last len(targets) columns of every row.
	targets []int
}

// compileMatch compiles the row search. DML plans are serial: row ids come
// from one stream, in image order on a vectorwise table.
func (db *DB) compileMatch(e *tableEntry, where sql.ExprNode, set []sql.SetClause) (*match, error) {
	m := &match{e: e}
	c, err := db.compile(1, func(b *plan.Binder) (plan.Node, error) {
		rewritesRows := e.heap != nil && len(set) > 0 // a heap UPDATE writes whole rows
		n, targets, err := b.BindMatch(e.meta, where, set, rewritesRows)
		m.targets = targets
		return n, err
	})
	if err != nil {
		return nil, err
	}
	m.compiled = c
	return m, nil
}

// begin starts the statement's transaction on a vectorwise table; a heap
// table has none (nil).
func (m *match) begin() *txn.Txn {
	if m.e.store == nil {
		return nil
	}
	return m.e.store.Begin()
}

// run executes the row search — in tx, when there is one — and returns the
// plan's output rows. The rows are charged to the query's memory budget as
// they are collected: an unfiltered UPDATE holds the whole table's worth of
// them until it has applied the last.
func (m *match) run(ctx context.Context, db *DB, tx *txn.Txn, profile bool) ([][]types.Value, *physical.Instance, error) {
	session := newQuerySession(db, ctx)
	if tx != nil {
		session.readThrough(m.e.meta.Name, tx)
	}
	defer session.close()
	return db.collect(ctx, m.compiled, session, 0, profile, true)
}

// execute is the life of an UPDATE or DELETE: a registered query that finds
// the rows and hands them to apply. An error or a cancellation before apply
// leaves the table untouched; on a vectorwise table so does one in apply or
// at commit, since apply writes into the statement's transaction (tx, nil on
// a heap table).
func (m *match) execute(ctx context.Context, db *DB, text string,
	apply func(tx *txn.Txn, rows [][]types.Value) error) (*Result, error) {
	var affected int64
	err := db.monitored(ctx, text, m.compiled, func(qctx context.Context) (int64, error) {
		tx := m.begin()
		rows, _, err := m.run(qctx, db, tx, false)
		if err == nil {
			err = qctx.Err() // cancelled after the last vector: nothing applied
		}
		if err == nil {
			err = apply(tx, rows)
		}
		if tx != nil {
			if err == nil {
				err = qctx.Err() // cancelled while applying: still not committed
			}
			if err != nil {
				tx.Abort()
				return 0, err
			}
			err = tx.Commit()
		}
		if err != nil {
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
// of the row search, and for PROFILE a run of it that applies nothing (in a
// transaction that is then aborted, on a vectorwise table).
func (db *DB) explainMatch(ctx context.Context, s *sql.ExplainStmt, table string, where sql.ExprNode, set []sql.SetClause) (*Result, error) {
	e, err := db.entry(table)
	if err != nil {
		return nil, err
	}
	m, err := db.compileMatch(e, where, set)
	if err != nil {
		return nil, err
	}
	text := explainText(m.compiled, s.Physical)
	if s.Profile {
		t := time.Now()
		tx := m.begin()
		rows, inst, err := m.run(ctx, db, tx, true)
		if tx != nil {
			tx.Abort()
		}
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
	m, err := db.compileMatch(e, s.Where, s.Set)
	if err != nil {
		return nil, err
	}
	if e.heap != nil {
		return m.execute(ctx, db, text, func(_ *txn.Txn, rows [][]types.Value) error {
			return m.replaceRows(rows)
		})
	}
	return m.execute(ctx, db, text, m.applyUpdates)
}

// newValue is the k-th SET target's new value in a plan output row, coerced
// to the column's type.
func (m *match) newValue(r []types.Value, k int) (types.Value, error) {
	v := r[len(r)-len(m.targets)+k]
	return coerceValue(v, m.e.meta.Schema.Cols[m.targets[k]].Type)
}

// applyUpdates records a positional modify for each SET target whose value
// changes.
func (m *match) applyUpdates(tx *txn.Txn, rows [][]types.Value) error {
	schema := m.e.meta.Schema
	cm := rewriter.PhysicalColMap(schema)
	for _, r := range rows {
		rid := r[0].I64
		for k, col := range m.targets {
			old := r[1+k]
			nv, err := m.newValue(r, k)
			if err != nil {
				return err
			}
			if nv.Null == old.Null && (nv.Null || types.Equal(nv, old)) {
				continue // unchanged (a NULL that stays NULL included): not written
			}
			colT := schema.Cols[col].Type
			val := nv
			if nv.Null {
				// Store the in-band safe value with the indicator, as inserts
				// do: NULL group keys are one group only if the pair is uniform.
				val = types.SafeValue(colT.Kind)
			}
			if err := tx.UpdateAt(rid, cm.Val[col], val); err != nil {
				return err
			}
			if colT.Nullable {
				if err := tx.UpdateAt(rid, cm.Ind[col], types.NewBool(nv.Null)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// replaceRows builds every matched heap row anew — its old values with the
// SET targets replaced — and then replaces them all at once, or none.
func (m *match) replaceRows(rows [][]types.Value) error {
	width := m.e.meta.Schema.Len()
	rids := make([]rowengine.RowID, len(rows))
	next := make([][]types.Value, len(rows))
	for i, r := range rows {
		rids[i] = rowengine.UnpackRowID(r[0].I64)
		next[i] = r[1 : 1+width]
		for k, col := range m.targets {
			v, err := m.newValue(r, k)
			if err != nil {
				return err
			}
			next[i][col] = v
		}
	}
	return m.e.heap.UpdateRows(rids, next)
}

func (db *DB) execDelete(ctx context.Context, s *sql.DeleteStmt, text string) (*Result, error) {
	e, err := db.entry(s.Table)
	if err != nil {
		return nil, err
	}
	m, err := db.compileMatch(e, s.Where, nil)
	if err != nil {
		return nil, err
	}
	return m.execute(ctx, db, text, func(tx *txn.Txn, rows [][]types.Value) error {
		if e.heap != nil {
			for _, r := range rows {
				if err := e.heap.Delete(rowengine.UnpackRowID(r[0].I64)); err != nil {
					return err
				}
			}
			return nil
		}
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
