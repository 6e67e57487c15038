package engine

import (
	"context"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"vectorwise/internal/colstore"
	"vectorwise/internal/exec"
	"vectorwise/internal/monitor"
	"vectorwise/internal/optimizer"
	"vectorwise/internal/physical"
	"vectorwise/internal/plan"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/rowengine"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/sql"
	"vectorwise/internal/txn"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
	"vectorwise/internal/xcompile"
)

// compiled carries a query through the Figure-1 pipeline stages (only the
// stages EXPLAIN renders are retained).
type compiled struct {
	logical   plan.Node
	optimized plan.Node
	rw        *rewriter.Result
	phys      physical.Node
	// spans times the compile-side pipeline phases (bind → optimize →
	// xcompile → rewrite → build); parse and execute are added by callers.
	spans []monitor.Span
}

// phase appends a lifecycle span measured from start to now.
func (c *compiled) phase(name string, start time.Time) {
	c.spans = append(c.spans, monitor.Span{Phase: name, Start: start, Dur: time.Since(start)})
}

// compileSelect runs parser output through binder → optimizer → cross
// compiler → rewriter → physical-plan builder, timing each phase.
func (db *DB) compileSelect(s *sql.SelectStmt) (*compiled, error) {
	par := db.Parallel
	if s.Parallel > 0 {
		par = s.Parallel
	}
	return db.compile(par, func(b *plan.Binder) (plan.Node, error) { return b.BindSelect(s) })
}

// compile takes whatever bind produces through the rest of the pipeline —
// the one way a plan is made, for queries and for the row search of
// UPDATE/DELETE alike.
func (db *DB) compile(par int, bind func(*plan.Binder) (plan.Node, error)) (*compiled, error) {
	c := &compiled{}
	t := time.Now()
	logical, err := bind(db.binder())
	if err != nil {
		return nil, err
	}
	c.phase("bind", t)
	opt := optimizer.New(db)
	t = time.Now()
	optimized := opt.Optimize(logical)
	c.phase("optimize", t)
	t = time.Now()
	tree, err := xcompile.Compile(optimized)
	if err != nil {
		return nil, err
	}
	c.phase("xcompile", t)
	t = time.Now()
	rw, err := rewriter.Rewrite(tree, rewriter.Options{Parallel: par, GroupsHint: db.groupsAvailable})
	if err != nil {
		return nil, err
	}
	c.phase("rewrite", t)
	t = time.Now()
	phys, err := physical.Build(rw.Node, db)
	if err != nil {
		return nil, err
	}
	c.phase("build", t)
	c.logical, c.optimized, c.rw, c.phys = logical, optimized, rw, phys
	return c, nil
}

// groupsAvailable reports how many row-group morsels a table's stable
// storage offers the given scan, capping the parallel degree. Range bounds
// on clustered columns shrink the estimate to the contiguous group window
// the scan will actually touch — no point spinning up more workers than
// surviving groups. Deliberately NOT sensitive to pending deltas: whether a
// scan can really run morsel-parallel is decided at Open time inside the
// query's snapshot (MorselSource), so a write racing between compile and
// run changes the run-time stream, never the plan shape — the
// compile-vs-run delta race the old partition hint suffered from is gone.
func (db *DB) groupsAvailable(spec *scanspec.Spec) int {
	e, err := db.entry(spec.Table)
	if err != nil || e.store == nil {
		return 1
	}
	stable := e.store.Stable()
	blocks := stable.NumBlocks()
	if blocks < 1 {
		return 1
	}
	// Ranges restrict value columns, which keep their logical names in
	// storage; resolve them by name against this snapshot's layout.
	var filters []colstore.RangeFilter
	for _, r := range spec.Ranges {
		if idx := stable.Schema().Find(spec.Cols.Cols[r.Col].Name); idx >= 0 {
			filters = append(filters, colstore.RangeFilter{Col: idx, Lo: r.Lo, Hi: r.Hi})
		}
	}
	if len(filters) > 0 {
		lo, hi := stable.ClusteredWindow(filters)
		if w := hi - lo; w < blocks {
			blocks = w
		}
		if blocks < 1 {
			return 1
		}
	}
	return blocks
}

// PhysicalTable implements physical.Catalog.
func (db *DB) PhysicalTable(name string) (*physical.TableInfo, error) {
	if meta := sysTableMeta(name); meta != nil {
		return &physical.TableInfo{
			Structure: meta.Structure,
			Logical:   meta.Schema,
			Physical:  rewriter.PhysicalSchema(meta.Schema),
		}, nil
	}
	e, err := db.entry(name)
	if err != nil {
		return nil, err
	}
	info := &physical.TableInfo{Structure: e.meta.Structure, Logical: e.meta.Schema}
	if e.store != nil {
		info.Physical = e.store.Schema()
	} else {
		info.Physical = rewriter.PhysicalSchema(e.meta.Schema)
	}
	return info, nil
}

func (db *DB) execSelect(ctx context.Context, s *sql.SelectStmt, text string) (*Result, error) {
	c, err := db.compileSelect(s)
	if err != nil {
		return nil, err
	}
	var res *Result
	err = db.monitored(ctx, text, c, func(qctx context.Context) (int64, error) {
		var err error
		if res, _, err = db.runCompiled(qctx, c, s, false); err != nil {
			return 0, err
		}
		return int64(len(res.Rows)), nil
	})
	return res, err
}

// monitored runs a compiled statement as a registered query: it appears in
// sys.queries with its plan and phase spans, run gets the context
// CancelQuery cancels, and the rows it reports (returned, or affected by
// DML) and its error are the query's outcome.
func (db *DB) monitored(ctx context.Context, text string, c *compiled, run func(context.Context) (int64, error)) error {
	qi, qctx := db.Monitor.StartQuery(ctx, text)
	db.Monitor.AttachPlan(qi, physical.Format(c.phys))
	if ps, ok := parseSpanFrom(ctx); ok {
		db.Monitor.AttachSpans(qi, ps)
	}
	db.Monitor.AttachSpans(qi, c.spans...)
	t := time.Now()
	rows, err := run(qctx)
	db.Monitor.AttachSpans(qi, monitor.Span{Phase: "execute", Start: t, Dur: time.Since(t)})
	db.Monitor.FinishQuery(qi, rows, err)
	return err
}

// collect runs a compiled plan against session's snapshots — checked
// arithmetic, the caller's memory budget, the vector size in force — and
// returns its output as logical rows, NULLs reassembled. charged bills the
// rows to the budget as they accumulate. The returned instance carries
// per-operator counters when profile is set.
func (db *DB) collect(ctx context.Context, c *compiled, session *querySession, vecSize int, profile, charged bool) ([][]types.Value, *physical.Instance, error) {
	inst, err := physical.Instantiate(c.phys, session)
	if err != nil {
		return nil, nil, err
	}
	ectx := exec.NewCtx(ctx)
	ectx.Profile = profile
	if budget := queryBudgetFrom(ctx); budget > 0 {
		ectx.Budget = exec.NewMemBudget(budget)
	}
	if db.VectorSize > 0 {
		ectx.VecSize = db.VectorSize
	}
	if vecSize > 0 {
		ectx.VecSize = vecSize
	}
	boxed := int64(len(inst.Root.Kinds())) * int64(unsafe.Sizeof(types.Value{}))
	var rows [][]types.Value
	err = exec.Run(ectx, inst.Root, func(b *vec.Batch) error {
		if charged {
			if err := ectx.Budget.Charge(int64(b.Rows())*boxed + exec.BatchBytes(b)); err != nil {
				return err
			}
		}
		for i := 0; i < b.Rows(); i++ {
			rows = append(rows, physicalToLogicalRow(c.rw.Logical, c.rw.ColMap, b.GetRow(i)))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, inst, nil
}

// runCompiled runs a query's plan over fresh snapshots of the tables it
// reads (consistent reads).
func (db *DB) runCompiled(ctx context.Context, c *compiled, s *sql.SelectStmt, profile bool) (*Result, *physical.Instance, error) {
	session := newQuerySession(db, ctx)
	defer session.close()
	rows, inst, err := db.collect(ctx, c, session, s.VectorSize, profile, false)
	if err != nil {
		return nil, nil, err
	}
	return &Result{Cols: c.rw.Logical.Names(), Rows: rows}, inst, nil
}

// explainText renders the compile stages EXPLAIN shows.
func explainText(c *compiled, physicalOnly bool) string {
	if physicalOnly {
		return "== physical plan ==\n" + physical.Format(c.phys)
	}
	return "== logical plan ==\n" + plan.Format(c.logical) +
		"== optimized plan ==\n" + plan.Format(c.optimized) +
		"== physical plan ==\n" + physical.Format(c.phys)
}

// profileText renders what EXPLAIN PROFILE adds after a run that started at
// t: the row count, the phase trace and the per-operator counters.
func profileText(ctx context.Context, c *compiled, t time.Time, rows string, inst *physical.Instance) string {
	spans := c.spans
	if ps, ok := parseSpanFrom(ctx); ok {
		spans = append([]monitor.Span{ps}, spans...)
	}
	spans = append(spans, monitor.Span{Phase: "execute", Start: t, Dur: time.Since(t)})
	return "== execution ==\n" + rows + "\n" +
		"== phase trace ==\n" + monitor.FormatSpans(spans) +
		"== operator profile ==\n" + inst.RenderProfile()
}

func (db *DB) execExplain(ctx context.Context, s *sql.ExplainStmt) (*Result, error) {
	switch q := s.Query.(type) {
	case *sql.SelectStmt:
		c, err := db.compileSelect(q)
		if err != nil {
			return nil, err
		}
		text := explainText(c, s.Physical)
		if s.Profile {
			t := time.Now()
			res, inst, err := db.runCompiled(ctx, c, q, true)
			if err != nil {
				return nil, err
			}
			text += profileText(ctx, c, t, fmt.Sprintf("%d rows", len(res.Rows)), inst)
		}
		return &Result{Text: text}, nil
	case *sql.UpdateStmt:
		return db.explainMatch(ctx, s, q.Table, q.Where, q.Set)
	case *sql.DeleteStmt:
		return db.explainMatch(ctx, s, q.Table, q.Where, nil)
	}
	return nil, fmt.Errorf("engine: EXPLAIN supports SELECT, UPDATE and DELETE only")
}

// querySession owns per-query snapshots of every vectorwise table touched.
// It implements physical.Env, supplying operator factories with storage
// handles bound to those snapshots. Parallel plans open their scan
// fragments from exchange goroutines, so the snapshot map is locked.
type querySession struct {
	db  *DB
	ctx context.Context
	mu  sync.Mutex
	txs map[string]*txn.Txn
	// borrowed is a transaction in txs that the caller owns (the statement
	// transaction of an UPDATE or DELETE): close leaves it open.
	borrowed *txn.Txn
	// releases un-registers this query's scans from per-table buffer-manager
	// shares when the query finishes.
	releases []func()
}

func newQuerySession(db *DB, ctx context.Context) *querySession {
	if ctx == nil {
		ctx = context.Background()
	}
	return &querySession{db: db, ctx: ctx, txs: map[string]*txn.Txn{}}
}

// readThrough makes the session's scans of table read the image of tx — a
// transaction the caller began and will commit or abort itself — so a DML
// statement's row search sees, and its commit validates against, one
// snapshot.
func (qs *querySession) readThrough(table string, tx *txn.Txn) {
	qs.txs[table] = tx
	qs.borrowed = tx
}

func (qs *querySession) close() {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	for _, tx := range qs.txs {
		if tx != qs.borrowed {
			tx.Abort()
		}
	}
	for _, rel := range qs.releases {
		rel()
	}
	qs.releases = nil
}

func (qs *querySession) addRelease(rel func()) {
	qs.mu.Lock()
	qs.releases = append(qs.releases, rel)
	qs.mu.Unlock()
}

func (qs *querySession) txFor(table string) (*txn.Txn, error) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if tx, ok := qs.txs[table]; ok {
		return tx, nil
	}
	e, err := qs.db.entry(table)
	if err != nil {
		return nil, err
	}
	if e.store == nil {
		return nil, fmt.Errorf("engine: %q is not a vectorwise table", table)
	}
	tx := e.store.Begin()
	qs.txs[table] = tx
	return tx, nil
}

// Heap implements physical.Env. Virtual sys.* tables materialize a fresh
// snapshot heap per query; real heap tables come from the catalog.
func (qs *querySession) Heap(table string) (*rowengine.HeapTable, error) {
	if sysTableMeta(table) != nil {
		return qs.db.sysHeap(table)
	}
	e, err := qs.db.entry(table)
	if err != nil {
		return nil, err
	}
	if e.heap == nil {
		return nil, fmt.Errorf("engine: %q is not a heap table", table)
	}
	return e.heap, nil
}

// MorselSource implements physical.Env: the run-time view of a scan by
// workers workers, decided inside the query's snapshot (after every
// compile-time decision). It is the one place a scan registers on the
// table's buffer-manager share. A delta-free snapshot offers the row groups
// of its clustered window as morsels, with an independent repositionable
// scanner per worker reading through the share's LRU pool; a snapshot
// carrying deltas degrades to one serial PDT-merged stream that a single
// worker claims, bypassing the pool — the plan keeps its shape either way,
// so a write committing between compile and run can no longer strand it.
func (qs *querySession) MorselSource(table string, cols []int, vecSize, workers int, filters []colstore.RangeFilter) (exec.MorselSource, error) {
	tx, err := qs.txFor(table)
	if err != nil {
		return nil, err
	}
	if !tx.DeltaFree() {
		src, err := tx.Scan(cols, vecSize) // filters off: every stable row must flow
		if err != nil {
			return nil, err
		}
		return exec.SerialMorselSource(src), nil
	}
	snap := tx.StableSnapshot()
	base := newStableMorselSource(snap, cols, vecSize, filters)
	sh := qs.db.shareFor(table, snap)
	if sh == nil {
		return base, nil
	}
	concurrent, release := sh.beginScan()
	qs.addRelease(release)
	cms := &coopMorselSource{stableMorselSource: base, ctx: qs.ctx, lru: sh.lru}
	// Cooperate when the table has company and this is a parallel full scan:
	// the ABM delivers every group exactly once across the workers, in
	// whatever order lets one physical read feed every attached query. A
	// one-worker scan must deliver groups in image order ($rid numbering and
	// DELETE's highest-position-first apply depend on it), and filtered
	// scans skip groups, so both stay on the LRU path.
	if workers > 1 && concurrent && len(filters) == 0 {
		cms.stream = &coopStream{scan: sh.abm.Attach()}
	}
	return cms, nil
}

// stableMorselSource serves a delta-free stable snapshot as row-group
// morsels. Each worker gets its own scanner (independent decode buffers);
// they coordinate purely through the morsel queue. Range filters on
// clustered columns narrow the offered groups to the window [winLo, winHi)
// once, here — workers never even see the pruned groups.
type stableMorselSource struct {
	snap         *colstore.Table
	cols         []int
	vecSize      int
	filters      []colstore.RangeFilter
	winLo, winHi int
	pruned       int   // groups outside the window
	prunedBytes  int64 // their encoded bytes in the projected columns
}

// newStableMorselSource derives the clustered group window inside the
// query's snapshot and accounts the pruned groups once for the whole scan.
// An empty window offers zero morsels: every group counts as pruned.
func newStableMorselSource(snap *colstore.Table, cols []int, vecSize int, filters []colstore.RangeFilter) *stableMorselSource {
	lo, hi := snap.ClusteredWindow(filters)
	s := &stableMorselSource{snap: snap, cols: cols, vecSize: vecSize,
		filters: filters, winLo: lo, winHi: hi}
	s.pruned, s.prunedBytes = snap.AccountWindowPrune(cols, lo, hi)
	return s
}

// NumMorsels implements exec.MorselSource.
func (s *stableMorselSource) NumMorsels() int { return s.winHi - s.winLo }

// PrunedGroups implements exec.WindowPruning.
func (s *stableMorselSource) PrunedGroups() (int, int64) { return s.pruned, s.prunedBytes }

// Worker implements exec.MorselSource. Queue indices are window-relative;
// the seek base rebases them onto absolute group ids.
func (s *stableMorselSource) Worker() (exec.MorselScanner, error) {
	sc, err := s.snap.NewMorselScanner(s.cols, s.vecSize, s.filters...)
	if err != nil {
		return nil, err
	}
	sc.SetSeekBase(s.winLo)
	return sc, nil
}
