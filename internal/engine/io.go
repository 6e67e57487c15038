package engine

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"

	"vectorwise/internal/colstore"
	"vectorwise/internal/monitor"
	"vectorwise/internal/optimizer"
	"vectorwise/internal/physical"
	"vectorwise/internal/sql"
	"vectorwise/internal/types"
)

// execCopy bulk-loads a CSV file (no header; empty fields are NULL) through
// load, or through the clustered bulk loader for COPY ... ORDER BY.
func (db *DB) execCopy(ctx context.Context, s *sql.CopyStmt) (*Result, error) {
	e, err := db.entry(s.Table)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.ReuseRecord = true
	logical := e.meta.Schema

	parseRow := func(rec []string) ([]types.Value, error) {
		if len(rec) != logical.Len() {
			return nil, fmt.Errorf("engine: CSV row has %d fields, want %d", len(rec), logical.Len())
		}
		row := make([]types.Value, len(rec))
		for i, field := range rec {
			col := logical.Cols[i]
			if field == "" {
				if !col.Type.Nullable {
					return nil, fmt.Errorf("engine: empty field for NOT NULL column %q", col.Name)
				}
				row[i] = types.NewNull(col.Type.Kind)
				continue
			}
			v, err := types.ParseValue(col.Type.Kind, field)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		return row, nil
	}

	if len(s.OrderBy) > 0 {
		return db.execCopyClustered(ctx, s, e, r, parseRow)
	}
	loaded, err := db.load(ctx, s.Table, func(emit func([]types.Value) error) error {
		for {
			rec, err := r.Read()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			row, err := parseRow(rec)
			if err != nil {
				return err
			}
			if err := emit(row); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	db.Monitor.Log(monitor.EvLoad, "copy %d rows into %s", loaded, s.Table)
	return &Result{Affected: loaded}, nil
}

// execCopyClustered streams COPY ... ORDER BY rows through the external
// sort-merge bulk loader, so groups land sorted with tight, disjoint
// min/max summaries and the sort columns keep their clustered markers.
func (db *DB) execCopyClustered(ctx context.Context, s *sql.CopyStmt, e *tableEntry,
	r *csv.Reader, parseRow func([]string) ([]types.Value, error)) (*Result, error) {
	if e.heap != nil {
		return nil, fmt.Errorf("engine: COPY ... ORDER BY needs a vectorwise table (%s is heap)", s.Table)
	}
	if e.store.Rows() != 0 || e.store.PendingOps() != 0 {
		return nil, fmt.Errorf("engine: COPY ... ORDER BY needs an empty table (%s has rows or pending deltas)", s.Table)
	}
	logical := e.meta.Schema
	keys := make([]colstore.SortKey, len(s.OrderBy))
	for i, o := range s.OrderBy {
		idx := -1
		for j, col := range logical.Cols {
			if col.Name == o.Col {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("engine: unknown ORDER BY column %q in COPY into %s", o.Col, s.Table)
		}
		// Physical value columns share the logical positions; NULL
		// indicators live past them, so the index carries over.
		keys[i] = colstore.SortKey{Col: idx, Desc: o.Desc}
	}
	loader, err := e.store.Stable().NewBulkLoader(keys, 0)
	if err != nil {
		return nil, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		row, err := parseRow(rec)
		if err != nil {
			return nil, err
		}
		if err := loader.Append(physical.DecomposeRow(logical, row)); err != nil {
			return nil, err
		}
	}
	if err := loader.Close(); err != nil {
		return nil, err
	}
	if db.durable() {
		if err := db.persistTable(s.Table, e.store.Stable(), e.store.LastWalSeq()); err != nil {
			return nil, err
		}
	}
	loaded := loader.Rows()
	db.Monitor.Log(monitor.EvLoad, "copy %d rows into %s clustered on %s", loaded, s.Table, s.OrderBy[0].Col)
	return &Result{Affected: loaded}, nil
}

// LoadBatchFunc bulk-loads generated rows via a callback (data generators,
// benches); the fast stable-append path when the table is empty.
func (db *DB) LoadBatchFunc(table string, gen func(emit func(row []types.Value) error) error) error {
	_, err := db.load(context.Background(), table, gen)
	return err
}

// load feeds the rows gen emits into table — the one bulk-load switch COPY
// and LoadBatchFunc share: heap inserts; on an empty vectorwise table, the
// block appender straight into stable storage, made durable at once; else
// one transaction inserting every row. ctx is checked before every row.
func (db *DB) load(ctx context.Context, table string, gen func(emit func(row []types.Value) error) error) (rows int64, err error) {
	e, err := db.entry(table)
	if err != nil {
		return 0, err
	}
	logical := e.meta.Schema
	var insert func(row []types.Value) error
	finish, abort := func() error { return nil }, func() {}
	switch {
	case e.heap != nil:
		insert = func(row []types.Value) error {
			_, err := e.heap.Insert(row)
			return err
		}
	case e.store.Rows() == 0 && e.store.PendingOps() == 0:
		ap := e.store.Stable().NewAppender()
		insert = func(row []types.Value) error { return ap.AppendRow(physical.DecomposeRow(logical, row)) }
		finish = func() error {
			if err := ap.Close(); err != nil {
				return err
			}
			// The appender bypassed the WAL; make the loaded stable durable
			// right away so a crash after the load returns keeps the rows.
			if db.durable() {
				return db.persistTable(table, e.store.Stable(), e.store.LastWalSeq())
			}
			return nil
		}
	default:
		tx := e.store.Begin()
		insert = func(row []types.Value) error { return tx.InsertRow(physical.DecomposeRow(logical, row)) }
		finish, abort = tx.Commit, tx.Abort
	}
	err = gen(func(row []types.Value) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := insert(row); err != nil {
			return err
		}
		rows++
		return nil
	})
	if err != nil {
		abort()
		return 0, err
	}
	if err := finish(); err != nil {
		return 0, err
	}
	return rows, nil
}

// execAnalyze builds equi-depth histograms for every column of a table —
// the statistics the (Ingres-role) optimizer estimates with.
func (db *DB) execAnalyze(ctx context.Context, s *sql.AnalyzeStmt) (*Result, error) {
	e, err := db.entry(s.Table)
	if err != nil {
		return nil, err
	}
	logical := e.meta.Schema
	// Collect logical column values.
	vals := make([][]types.Value, logical.Len())
	nulls := make([]int64, logical.Len())
	collect := func(row []types.Value) {
		for i, v := range row {
			if v.Null {
				nulls[i]++
			} else {
				vals[i] = append(vals[i], v)
			}
		}
	}
	// The table's logical rows come from the planner, like any SELECT *.
	all := &sql.SelectStmt{Items: []sql.SelectItem{{Star: true}},
		From: []sql.TableRef{&sql.BaseTable{Name: s.Table}}, Limit: -1}
	c, err := db.compileSelect(all)
	if err != nil {
		return nil, err
	}
	res, _, err := db.runCompiled(ctx, c, all, false)
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		collect(row)
	}
	stats := map[string]*optimizer.ColStats{}
	for i, col := range logical.Cols {
		sort.Slice(vals[i], func(a, b int) bool { return types.Compare(vals[i][a], vals[i][b]) < 0 })
		stats[col.Name] = optimizer.BuildColStats(vals[i], 64, nulls[i])
	}
	db.mu.Lock()
	db.stats[s.Table] = stats
	db.mu.Unlock()
	db.Monitor.Log(monitor.EvDDL, "analyze %s", s.Table)
	return &Result{Text: "ANALYZE"}, nil
}
