package main

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"vectorwise/internal/bufmgr"
	"vectorwise/internal/colstore"
	"vectorwise/internal/compress"
	"vectorwise/internal/engine"
	"vectorwise/internal/pdt"
	"vectorwise/internal/sql"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// scanSpec is one table scan of a statement's physical plan: the table and
// the physical columns the engine reads.
type scanSpec struct {
	table string
	cols  []int
}

// scanLine matches a Scan or ParallelScan line of EXPLAIN PHYSICAL. Parallel
// plans repeat the scan once per worker; only worker 0 is kept.
var scanLine = regexp.MustCompile(`(Parallel)?Scan\('(\w+)', \[[^\]]*\] @ \[([0-9 ]*)\](?:, worker (\d+)/)?`)

// scanSpecs reads which tables and columns a plan scans from the engine's own
// EXPLAIN PHYSICAL output, so the replayed scans follow the planner.
func scanSpecs(plan string) []scanSpec {
	var out []scanSpec
	for _, m := range scanLine.FindAllStringSubmatch(plan, -1) {
		if m[1] != "" && m[4] != "0" {
			continue
		}
		var cols []int
		for _, f := range strings.Fields(m[3]) {
			c, _ := strconv.Atoi(f)
			cols = append(cols, c)
		}
		out = append(out, scanSpec{table: m[2], cols: cols})
	}
	return out
}

// chunkSource serves a stable snapshot's row groups as buffer-pool chunks,
// the way the engine's scan share does.
type chunkSource struct{ t *colstore.Table }

func (s chunkSource) NumChunks() int { return s.t.NumBlocks() }
func (s chunkSource) ReadChunk(_ context.Context, id int) ([]byte, error) {
	return s.t.EncodeGroup(id)
}

// tracedPool fetches row groups through a bench-owned LRU pool and records
// each fetch as a bufmgr.get span under the scan that caused it.
type tracedPool struct {
	pool   *bufmgr.LRUPool
	tr     *tracer
	parent int
	stmt   int
}

func (p *tracedPool) FetchGroup(ctx context.Context, g int) ([]byte, error) {
	id := p.tr.begin("bufmgr.get", p.parent, p.stmt)
	data, err := p.pool.Get(ctx, g)
	p.tr.end(id)
	return data, err
}

// replayer re-runs a statement's layers one by one, from outside the engine,
// right after the statement itself: the only way to see where its time went
// without touching the engine.
type replayer struct {
	db      *engine.DB
	poolCap int
	specs   map[string][]scanSpec
	tables  map[string]*tableCache
}

// tableCache is what the replayer keeps per table, valid for one stable
// snapshot (a checkpoint replaces the snapshot and the cache with it).
type tableCache struct {
	snap     *colstore.Table
	pool     *bufmgr.LRUPool
	payloads [][][]byte // group -> column -> block bytes
}

// poolCapacity is the engine's per-table buffer-pool capacity in row groups.
func poolCapacity(db *engine.DB) int {
	if db.BufferGroups > 0 {
		return db.BufferGroups
	}
	return engine.DefaultBufferGroups
}

func newReplayer(db *engine.DB) *replayer {
	return &replayer{db: db, poolCap: poolCapacity(db), specs: map[string][]scanSpec{},
		tables: map[string]*tableCache{}}
}

// statement replays a SELECT: engine.exec ⊃ engine.compile (its EXPLAIN
// PHYSICAL, which parses too) ⊃ sql.parse, and one scan subtree per table
// scanned.
func (r *replayer) statement(tr *tracer, stmt int, text string) error {
	ctx := context.Background()
	root := tr.begin("bench.replay", -1, stmt)
	defer tr.end(root)
	ex := tr.begin("engine.exec", root, stmt)
	_, err := r.db.Exec(ctx, text)
	tr.end(ex)
	if err != nil {
		return err
	}
	c := tr.begin("engine.compile", ex, stmt)
	plan, err := r.db.Exec(ctx, "EXPLAIN PHYSICAL "+text)
	tr.end(c)
	if err != nil {
		return err
	}
	r.parse(tr, c, stmt, text)
	specs, ok := r.specs[text]
	if !ok {
		specs = scanSpecs(plan.Text)
		r.specs[text] = specs
	}
	return r.scans(tr, ex, stmt, specs)
}

func (r *replayer) parse(tr *tracer, parent, stmt int, text string) {
	p := tr.begin("sql.parse", parent, stmt)
	_, _ = sql.Parse(text) // the statement already ran; a parse error would have failed it
	tr.end(p)
}

// scans replays each table scan. Delta-free tables: colstore.scan (through a
// pool of the engine's capacity) ⊃ bufmgr.get, compress.decode. Tables with
// pending deltas: pdt.merge (the merged scan the engine runs) ⊃
// colstore.scan (the same stable scan without the merge) ⊃ compress.decode.
func (r *replayer) scans(tr *tracer, parent, stmt int, specs []scanSpec) error {
	for _, sp := range specs {
		store, err := r.db.Store(sp.table)
		if err != nil {
			return err
		}
		tx := store.Begin()
		snap := tx.StableSnapshot()
		tc := r.cache(sp.table, snap)
		if tx.DeltaFree() {
			s := tr.begin("colstore.scan", parent, stmt)
			err = stableScan(snap, sp.cols, &tracedPool{pool: tc.pool, tr: tr, parent: s, stmt: stmt})
			tr.end(s)
			if err == nil {
				err = tc.decode(tr, s, stmt, sp.cols)
			}
		} else {
			m := tr.begin("pdt.merge", parent, stmt)
			var src pdt.BatchSource
			if src, err = tx.Scan(sp.cols, 0); err == nil {
				_, err = drain(src)
			}
			tr.end(m)
			// The merged path reads every column and no pool.
			all := allCols(snap)
			if err == nil {
				s := tr.begin("colstore.scan", m, stmt)
				err = stableScan(snap, all, nil)
				tr.end(s)
				if err == nil {
					err = tc.decode(tr, s, stmt, all)
				}
			}
		}
		tx.Abort()
		if err != nil {
			return fmt.Errorf("replaying scan of %s: %w", sp.table, err)
		}
	}
	return nil
}

func allCols(t *colstore.Table) []int {
	cols := make([]int, t.Schema().Len())
	for i := range cols {
		cols[i] = i
	}
	return cols
}

func (r *replayer) cache(table string, snap *colstore.Table) *tableCache {
	tc := r.tables[table]
	if tc == nil || tc.snap != snap {
		tc = &tableCache{snap: snap, pool: bufmgr.NewLRUPool(chunkSource{snap}, r.poolCap)}
		r.tables[table] = tc
	}
	return tc
}

func stableScan(snap *colstore.Table, cols []int, src colstore.BlockSource) error {
	sc, err := snap.NewScanner(cols, 0)
	if err != nil {
		return err
	}
	if src != nil && snap.NumBlocks() > 0 {
		sc.SetBlockSource(context.Background(), src)
	}
	_, err = drain(sc)
	return err
}

// drain pulls a batch source dry and returns the rows it produced.
func drain(src pdt.BatchSource) (int64, error) {
	b := vec.NewBatch(src.Kinds(), vec.DefaultSize)
	var rows int64
	for {
		_, n, done, err := src.Next(b)
		if err != nil || done {
			return rows, err
		}
		rows += int64(n)
	}
}

// blockPayloads returns the encoded block bytes of every group and column of
// a table, through the same framing the buffer pool carries.
func blockPayloads(t *colstore.Table) ([][][]byte, error) {
	ncols := t.Schema().Len()
	out := make([][][]byte, t.NumBlocks())
	for g := range out {
		frame, err := t.EncodeGroup(g)
		if err != nil {
			return nil, err
		}
		if out[g], err = colstore.DecodeGroupPayloads(frame, ncols); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decode replays the codec work of a scan: the same blocks through
// compress.DecodeInt64 / DecodeString.
func (tc *tableCache) decode(tr *tracer, parent, stmt int, cols []int) error {
	if tc.payloads == nil {
		var err error
		if tc.payloads, err = blockPayloads(tc.snap); err != nil {
			return err
		}
	}
	schema := tc.snap.Schema()
	d := tr.begin("compress.decode", parent, stmt)
	defer tr.end(d)
	for g := range tc.payloads {
		for _, c := range cols {
			if err := decodeBlock(schema.Cols[c].Type.Kind, tc.payloads[g][c]); err != nil {
				return err
			}
		}
	}
	return nil
}

func decodeBlock(kind types.Kind, data []byte) error {
	var err error
	if kind == types.KindString {
		_, _, err = compress.DecodeString(nil, data)
	} else {
		_, _, err = compress.DecodeInt64(nil, data)
	}
	return err
}
