package main

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"time"

	"vectorwise/internal/bufmgr"
	"vectorwise/internal/colstore"
	"vectorwise/internal/compress"
	"vectorwise/internal/engine"
	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/fsim"
	"vectorwise/internal/pdt"
	"vectorwise/internal/primitives"
	"vectorwise/internal/rowengine"
	"vectorwise/internal/session"
	"vectorwise/internal/txn"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
	"vectorwise/internal/wal"
	"vectorwise/internal/wire"
)

// Per-layer metrics are measured from outside the engine: by timing a
// package's exported functions on the workload's own data (the probes below),
// by diffing the engine's existing counters around the untraced rounds, or
// from the traced rounds' spans. A metric that does not apply to a workload
// reads 0 there.

// memReading is a snapshot of the Go runtime's allocation and GC counters.
type memReading struct {
	alloc, mallocs uint64
	gcCPU          float64 // seconds
}

func readMem() memReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	r := memReading{alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	return r
}

// memDelta accumulates runtime deltas over the untraced rounds.
type memDelta struct {
	alloc, mallocs uint64
	gcCPU          float64
}

func (d *memDelta) add(a, b memReading) {
	d.alloc += b.alloc - a.alloc
	d.mallocs += b.mallocs - a.mallocs
	d.gcCPU += b.gcCPU - a.gcCPU
}

// timeOp runs f until at least budget has passed (three times at least) and
// returns the median duration of one call; it stops at f's first error.
func timeOp(budget time.Duration, f func() error) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || time.Since(start) < budget {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds)), nil
}

// timeN runs f n times and returns the median duration of one call.
func timeN(n int, f func(i int) error) (time.Duration, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds)), nil
}

// probeScale sizes the probes (main sets it from -scale): probe is how long
// one probe may run.
var probeScale = scales["ref"]

func perSec(units float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return units / d.Seconds()
}

func usec(d time.Duration) float64 { return float64(d) / 1e3 }
func msec(d time.Duration) float64 { return float64(d) / 1e6 }

// --- compress and colstore: the storage layers, on a workload's own table ---

var codecNames = map[compress.Codec]string{compress.None: "raw", compress.PFOR: "pfor",
	compress.PFORDelta: "pfordelta", compress.RLE: "rle", compress.PDict: "pdict"}

// storageProbes times the codecs, the scanner, the appender, the bulk loader,
// persistence and the buffer pool on the given stable tables; the first is
// the workload's main table.
func storageProbes(m map[string]float64, poolCap int, tables ...*colstore.Table) error {
	t := tables[0]
	// The bulk-loaded copy is sorted by ship date, the way wire_short stores
	// lineitem: its blocks bring the codecs random data never picks (RLE).
	clustered, err := loadProbes(m, t)
	if err != nil {
		return err
	}
	if err := codecProbes(m, append(tables, clustered)); err != nil {
		return err
	}
	wide := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	before := readMem()
	if err := stableScan(t, wide, nil); err != nil {
		return err
	}
	m["colstore.scan_alloc_kb_per_group"] = float64(readMem().alloc-before.alloc) / 1024 / float64(t.NumBlocks())
	for name, cols := range map[string][]int{"c1": {2}, "c3": {2, 3, 8}, "c11": wide} {
		d, err := timeOp(probeScale.probe, func() error { return stableScan(t, cols, nil) })
		if err != nil {
			return err
		}
		m["colstore.scan_mrows_per_s."+name] = perSec(float64(t.Rows())/1e6, d)
	}
	return poolProbes(m, t, poolCap)
}

// codecBlock is one encoded column block and what it decodes to.
type codecBlock struct {
	kind    types.Kind
	data    []byte
	ints    []int64  // decoded values, one of the two
	strs    []string //
	decoded float64  // bytes of decoded values: 8 per integer, string bytes
}

func (b *codecBlock) decode() error {
	var err error
	if b.kind == types.KindString {
		b.strs, _, err = compress.DecodeString(nil, b.data)
	} else {
		b.ints, _, err = compress.DecodeInt64(nil, b.data)
	}
	return err
}

// codecProbes decodes every block of the tables, grouped by the codec the
// store chose for it, and re-encodes the main table's first row groups (the
// encoders are some fifty times slower than the decoders).
func codecProbes(m map[string]float64, tables []*colstore.Table) error {
	byCodec := map[compress.Codec][]*codecBlock{}
	var reencode []*codecBlock
	encGroups := max(1, probeScale.probeRows/colstore.BlockRows)
	before := readMem()
	var blocks, rawBytes, encBytes, reencoded float64
	for ti, t := range tables {
		payloads, err := blockPayloads(t)
		if err != nil {
			return err
		}
		for g := range payloads {
			for c, data := range payloads[g] {
				b := &codecBlock{kind: t.Schema().Cols[c].Type.Kind, data: data}
				if err := b.decode(); err != nil {
					return err
				}
				b.decoded = float64(8 * len(b.ints))
				for _, s := range b.strs {
					b.decoded += float64(len(s))
				}
				_, codec := t.BlockMeta(c, g)
				byCodec[codec] = append(byCodec[codec], b)
				if ti == 0 && g < encGroups {
					reencode = append(reencode, b)
					reencoded += b.decoded
				}
				blocks++
				rawBytes += b.decoded
				encBytes += float64(len(data))
			}
		}
	}
	// The first decode of every block above also counted its allocations
	// (the framing's own are a few per group).
	m["compress.decode_allocs_per_block"] = float64(readMem().mallocs-before.mallocs) / blocks
	m["compress.ratio"] = rawBytes / encBytes
	for codec, blks := range byCodec {
		var decoded float64
		for _, b := range blks {
			decoded += b.decoded
		}
		d, err := timeOp(probeScale.probe/2, func() error {
			for _, b := range blks {
				if err := decodeBlock(b.kind, b.data); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m["compress.decode_mbps."+codecNames[codec]] = perSec(decoded/1e6, d)
	}
	d, err := timeOp(probeScale.probe, func() error {
		for _, b := range reencode {
			if b.kind == types.KindString {
				compress.ChooseString(nil, b.strs)
			} else {
				compress.ChooseInt64(nil, b.ints)
			}
		}
		return nil
	})
	m["compress.encode_mbps"] = perSec(reencoded/1e6, d)
	return err
}

// loadProbes times the write side of colstore on the first rows of t (two row
// groups at the reference scale): row appends, the sorting bulk loader, and
// save/load on an in-memory file system (checksums included). It returns the
// bulk-loaded table.
func loadProbes(m map[string]float64, t *colstore.Table) (*colstore.Table, error) {
	sc, err := t.NewScanner(allCols(t), 0)
	if err != nil {
		return nil, err
	}
	var rows [][]types.Value
	b := vec.NewBatch(sc.Kinds(), vec.DefaultSize)
	for len(rows) < probeScale.probeRows {
		_, n, done, err := sc.Next(b)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		for i := 0; i < n; i++ {
			rows = append(rows, b.GetRow(i))
		}
	}
	krows := float64(len(rows)) / 1e3
	d, err := timeOp(probeScale.probe, func() error {
		ap := colstore.NewTable(t.Schema()).NewAppender()
		for _, r := range rows {
			if err := ap.AppendRow(r); err != nil {
				return err
			}
		}
		return ap.Close()
	})
	if err != nil {
		return nil, err
	}
	m["colstore.append_krows_per_s"] = perSec(krows, d)
	const shipdateCol = 8
	var clustered *colstore.Table
	d, err = timeOp(probeScale.probe, func() error {
		clustered = colstore.NewTable(t.Schema())
		bl, err := clustered.NewBulkLoader([]colstore.SortKey{{Col: shipdateCol}}, 0)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if err := bl.Append(r); err != nil {
				return err
			}
		}
		return bl.Close()
	})
	if err != nil {
		return nil, err
	}
	m["colstore.bulkload_krows_per_s"] = perSec(krows, d)

	mem := fsim.NewMemFS()
	d, err = timeOp(probeScale.probe, func() error { return t.SaveFS(mem, "probe.vwt") })
	if err != nil {
		return nil, err
	}
	size := float64(mem.DurableLen("probe.vwt"))
	m["colstore.save_mbps"] = perSec(size/1e6, d)
	d, err = timeOp(probeScale.probe, func() error {
		_, err := colstore.LoadFS(mem, "probe.vwt")
		return err
	})
	m["colstore.load_mbps"] = perSec(size/1e6, d)
	return clustered, err
}

// poolProbes times LRUPool.Get over the table's own chunk source: misses on
// a cold pool, then hits on the groups it kept.
func poolProbes(m map[string]float64, t *colstore.Table, poolCap int) error {
	n := min(poolCap, t.NumBlocks())
	ctx := context.Background()
	var miss, hit []float64
	for rep := 0; rep < 5; rep++ {
		pool := bufmgr.NewLRUPool(chunkSource{t}, poolCap)
		for _, dst := range []*[]float64{&miss, &hit} { // first pass misses, second hits
			for g := 0; g < n; g++ {
				t0 := time.Now()
				if _, err := pool.Get(ctx, g); err != nil {
					return err
				}
				*dst = append(*dst, float64(time.Since(t0)))
			}
		}
	}
	m["bufmgr.get_us.miss"] = median(miss) / 1e3
	m["bufmgr.get_us.hit"] = median(hit) / 1e3
	return nil
}

// --- pdt, txn, wal ---

// pdtUpdateProbe times a mixed stream of InsertAt / ModifyAt / DeleteAt on a
// fresh tree over a virtual stable table.
func pdtUpdateProbe(m map[string]float64, stableRows int64) error {
	const ops = 3000
	row := (&liRow{flag: "A", status: "F", mode: "AIR"}).values()
	d, err := timeOp(probeScale.probe, func() error {
		p := pdt.New()
		for i := int64(0); i < ops; i++ {
			rid := (i * 7919) % stableRows
			var err error
			switch i % 3 {
			case 0:
				err = p.InsertAt(rid, row)
			case 1:
				err = p.ModifyAt(rid, 2, types.NewInt32(7))
			default:
				err = p.DeleteAt(rid)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	m["pdt.update_kops_per_s"] = perSec(ops/1e3, d)
	return err
}

// mergeProbe times the merged scan of a store with pending deltas against the
// plain scan of its stable table, all columns.
func mergeProbe(m map[string]float64, store *txn.Store) error {
	m["pdt.ops_pending"] = float64(store.PendingOps())
	if store.PendingOps() == 0 {
		return nil
	}
	stable := store.Stable()
	cols := allCols(stable)
	var rows int64
	merged, err := timeOp(probeScale.probe, func() error {
		tx := store.Begin()
		defer tx.Abort()
		src, err := tx.Scan(cols, 0)
		if err != nil {
			return err
		}
		rows, err = drain(src)
		return err
	})
	if err != nil {
		return err
	}
	plain, err := timeOp(probeScale.probe, func() error { return stableScan(stable, cols, nil) })
	m["pdt.merge_mrows_per_s"] = perSec(float64(rows)/1e6, merged)
	m["pdt.merge_slowdown_x"] = float64(merged) / float64(plain)
	return err
}

// scanOpenProbe times Begin + Scan + Abort: what every SELECT pays before its
// first batch (the snapshot clones the pending deltas).
func scanOpenProbe(m map[string]float64, store *txn.Store) error {
	cols := allCols(store.Stable())
	d, err := timeOp(probeScale.probe/3, func() error {
		tx := store.Begin()
		defer tx.Abort()
		_, err := tx.Scan(cols, 0)
		return err
	})
	m["txn.scan_open_us"] = usec(d)
	return err
}

// walProbes times wal.Append (one single-row insert per record, fsync on an
// in-memory file system), a durable commit through txn on top of it, and
// wal.Open replaying the log it wrote.
func walProbes(m map[string]float64) error {
	mem := fsim.NewMemFS()
	log, _, err := wal.Open(mem, "probe.log")
	if err != nil {
		return err
	}
	row := (&liRow{flag: "A", status: "F", mode: "AIR"}).values()
	row = append(row, types.NewBool(false)) // physical layout: l_comment's NULL indicator
	op := []wal.Op{{Kind: wal.OpInsert, Pos: 0, Row: row}}
	d, err := timeN(probeScale.probeOps, func(int) error {
		_, err := log.Append("lineitem", op)
		return err
	})
	if err != nil {
		return err
	}
	m["wal.append_us"] = usec(d)

	schema := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Int32))
	store := txn.NewStore(colstore.NewTable(schema))
	store.SetDurable(log, "probe", func(*colstore.Table, uint64) error { return nil })
	d, err = timeN(probeScale.probeOps, func(i int) error {
		tx := store.Begin()
		if err := tx.InsertRow([]types.Value{types.NewInt64(int64(i)), types.NewInt32(1)}); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	})
	if err != nil {
		return err
	}
	m["txn.commit_us"] = usec(d)
	if err := log.Close(); err != nil {
		return err
	}
	var n int
	d, err = timeOp(probeScale.probe, func() error {
		l, res, err := wal.Open(mem, "probe.log")
		if err != nil {
			return err
		}
		n = len(res.Records)
		return l.Close()
	})
	m["wal.replay_krecords_per_s"] = perSec(float64(n)/1e3, d)
	return err
}

// --- exec and primitives: operators over in-memory batches shaped like the
// join_agg_sort workload's ---

func makeBatches(kinds []types.Kind, n int, row func(i int, out []types.Value)) []*vec.Batch {
	var out []*vec.Batch
	vals := make([]types.Value, len(kinds))
	for lo := 0; lo < n; lo += vec.DefaultSize {
		hi := min(n, lo+vec.DefaultSize)
		b := vec.NewBatch(kinds, hi-lo)
		for i := lo; i < hi; i++ {
			row(i, vals)
			for c := range vals {
				b.Vecs[c].Append(vals[c])
			}
		}
		b.SetLen(hi - lo)
		out = append(out, b)
	}
	return out
}

// runOp opens an operator, drains it, closes it; it returns the time Open
// took (a hash join builds there) and the time the drain took.
func runOp(op exec.Operator) (open, drainT time.Duration, err error) {
	defer op.Close()
	ctx := exec.NewCtx(context.Background())
	t := time.Now()
	if err = op.Open(ctx); err != nil {
		return 0, 0, err
	}
	open = time.Since(t)
	t = time.Now()
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return open, time.Since(t), err
		}
	}
}

func execProbes(m map[string]float64, d *dataset) error {
	liKinds := []types.Kind{types.KindInt64, types.KindInt64, types.KindInt32, types.KindFloat64,
		types.KindFloat64, types.KindString, types.KindString, types.KindDate}
	li := makeBatches(liKinds, len(d.li), func(i int, out []types.Value) {
		r := &d.li[i]
		out[0], out[1], out[2] = int64Val(r.orderkey), int64Val(r.partkey), types.NewInt32(r.quantity)
		out[3], out[4] = float64Val(r.price), float64Val(r.discount)
		out[5], out[6], out[7] = stringVal(r.flag), stringVal(r.status), types.NewDate(r.shipdate)
	})
	ordKinds := []types.Kind{types.KindInt64, types.KindString}
	ord := makeBatches(ordKinds, len(d.ord), func(i int, out []types.Value) {
		out[0], out[1] = int64Val(d.ord[i].key), stringVal(d.ord[i].priority)
	})
	liRows, ordRows := float64(len(d.li))/1e6, float64(len(d.ord))/1e6
	source := func(kinds []types.Kind, bs []*vec.Batch) exec.Operator {
		for _, b := range bs {
			b.Sel = nil // an operator above may have left its selection behind
		}
		return exec.NewBatchSupplier(kinds, bs)
	}
	lineitem := func() exec.Operator { return source(liKinds, li) }

	var builds, probes []float64
	for i := 0; i < 5; i++ {
		j := exec.NewHashJoin(lineitem(), source(ordKinds, ord), []int{0}, []int{0}, exec.Inner)
		open, dr, err := runOp(j)
		if err != nil {
			return err
		}
		builds, probes = append(builds, float64(open)), append(probes, float64(dr))
	}
	m["exec.hashjoin_build_mrows_per_s"] = perSec(ordRows, time.Duration(median(builds)))
	m["exec.hashjoin_probe_mrows_per_s"] = perSec(liRows, time.Duration(median(probes)))

	keys := []exec.SortKey{{Col: 3, Desc: true}, {Col: 0}}
	pred := expr.NewCall("and",
		expr.NewCall("<=", expr.Col(7, "l_shipdate", types.Date), expr.CDate(q1Cutoff)),
		expr.NewCall("<", expr.Col(2, "l_quantity", types.Int32), expr.CInt32(25)))
	revenue := expr.NewCall("*", expr.Col(3, "l_extendedprice", types.Float64),
		expr.NewCall("-", expr.CFloat(1), expr.Col(4, "l_discount", types.Float64)))
	for _, p := range []struct {
		name string
		mk   func() (exec.Operator, error)
	}{
		{"hashagg_mrows_per_s.g6", func() (exec.Operator, error) {
			return exec.NewHashAgg(lineitem(), []int{5, 6}, []exec.AggSpec{{Fn: exec.AggCount, Col: -1}, {Fn: exec.AggSum, Col: 2}})
		}},
		{"hashagg_mrows_per_s.g200k", func() (exec.Operator, error) {
			return exec.NewHashAgg(lineitem(), []int{1}, []exec.AggSpec{{Fn: exec.AggCount, Col: -1}})
		}},
		{"sort_mrows_per_s", func() (exec.Operator, error) { return exec.NewSort(lineitem(), keys), nil }},
		{"topn_mrows_per_s", func() (exec.Operator, error) { return exec.NewTopN(lineitem(), keys, 100), nil }},
		{"select_mrows_per_s", func() (exec.Operator, error) { return exec.NewSelect(lineitem(), pred), nil }},
		{"project_mrows_per_s", func() (exec.Operator, error) {
			return exec.NewProject(lineitem(), []expr.Expr{revenue}), nil
		}},
	} {
		dur, err := timeOp(probeScale.probe, func() error {
			op, err := p.mk()
			if err != nil {
				return err
			}
			_, _, err = runOp(op)
			return err
		})
		if err != nil {
			return err
		}
		m["exec."+p.name] = perSec(liRows, dur)
	}
	return vectorizedSpeedup(m, d)
}

// vectorizedSpeedup is the paper's ">10x": the same Q1-style plan
// tuple-at-a-time over a heap table and vector-at-a-time over the column
// store, on the first 100K generated rows.
func vectorizedSpeedup(m map[string]float64, d *dataset) error {
	n := min(100_000, len(d.li))
	schema := types.NewSchema(types.Col("l_quantity", types.Int32), types.Col("l_extendedprice", types.Float64),
		types.Col("l_discount", types.Float64), types.Col("l_returnflag", types.String),
		types.Col("l_linestatus", types.String), types.Col("l_shipdate", types.Date))
	kinds := make([]types.Kind, schema.Len())
	for i, c := range schema.Cols {
		kinds[i] = c.Type.Kind
	}
	tab := colstore.NewTable(schema)
	ap := tab.NewAppender()
	heap := rowengine.NewHeapTable(schema, -1)
	for i := 0; i < n; i++ {
		r := &d.li[i]
		row := []types.Value{types.NewInt32(r.quantity), float64Val(r.price), float64Val(r.discount),
			stringVal(r.flag), stringVal(r.status), types.NewDate(r.shipdate)}
		if err := ap.AppendRow(row); err != nil {
			return err
		}
		if _, err := heap.Insert(row); err != nil {
			return err
		}
	}
	if err := ap.Close(); err != nil {
		return err
	}
	pred := func() expr.Expr {
		return expr.NewCall("<=", expr.Col(5, "l_shipdate", types.Date), expr.CDate(q1Cutoff))
	}
	proj := func() []expr.Expr {
		return []expr.Expr{expr.Col(3, "flag", types.String), expr.Col(4, "status", types.String),
			expr.Col(0, "qty", types.Int32),
			expr.NewCall("*", expr.Col(1, "price", types.Float64),
				expr.NewCall("-", expr.CFloat(1), expr.Col(2, "discount", types.Float64))),
			expr.Col(1, "price", types.Float64)}
	}
	vectorized, err := timeOp(probeScale.probe, func() error {
		scan := exec.NewColScan(kinds, func(vs int) (pdt.BatchSource, error) {
			return tab.NewScanner(allCols(tab), vs)
		})
		agg, err := exec.NewHashAgg(exec.NewProject(exec.NewSelect(scan, pred()), proj()), []int{0, 1},
			[]exec.AggSpec{{Fn: exec.AggCount, Col: -1}, {Fn: exec.AggSum, Col: 2}, {Fn: exec.AggSum, Col: 3}, {Fn: exec.AggAvg, Col: 4}})
		if err != nil {
			return err
		}
		_, _, err = runOp(agg)
		return err
	})
	if err != nil {
		return err
	}
	tuple, err := timeOp(probeScale.probe, func() error {
		filt := rowengine.NewFilter(rowengine.NewTableScan(heap), pred())
		agg := rowengine.NewAggRow(rowengine.NewMap(filt, proj(), []string{"f", "s", "q", "dp", "p"}), []int{0, 1},
			[]rowengine.RowAggSpec{{Fn: "count", Col: -1}, {Fn: "sum", Col: 2}, {Fn: "sum", Col: 3}, {Fn: "avg", Col: 4}})
		_, err := rowengine.CollectRows(context.Background(), agg)
		return err
	})
	m["exec.vectorized_speedup_x"] = float64(tuple) / float64(vectorized)
	return err
}

// probeSink keeps the compiler from dropping a probe's result.
var probeSink float64

func primitiveProbes(m map[string]float64) error {
	const n, reps = vec.DefaultSize, 2000
	f := make([]float64, n)
	a, b, dst := make([]int64, n), make([]int64, n), make([]int64, n)
	h := make([]uint64, n)
	for i := range f {
		f[i], a[i], b[i] = float64(i)*0.5, int64(i), int64(i%97)
	}
	for _, p := range []struct {
		name string
		fn   func() error
	}{
		{"sum", func() error { probeSink += primitives.SumDirect(f, nil, n); return nil }},
		{"hash", func() error { primitives.HashInt(h, a, nil, n); return nil }},
		{"checked_mul", func() error { return primitives.CheckedMulVVI64(dst, a, b, nil) }},
	} {
		d, err := timeOp(probeScale.probe/3, func() error {
			for r := 0; r < reps; r++ {
				if err := p.fn(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m["primitives."+p.name+"_mrows_per_s"] = perSec(float64(n*reps)/1e6, d)
	}
	return nil
}

// --- session, engine formatting, wire codec ---

// sessionProbes measures what Session.Exec adds over DB.Exec on a constant
// select, and how long a statement waits for admission when a one-slot pool
// is kept busy by a second session.
func sessionProbes(m map[string]float64) error {
	const text = "SELECT 1"
	ctx := context.Background()
	db := engine.Open()
	pool := session.NewPool(db, session.Config{MaxConcurrent: 1})
	defer pool.Close()
	s1, err := pool.Open()
	if err != nil {
		return err
	}
	defer s1.Close()
	viaSession := func(int) error { _, err := s1.Exec(ctx, text); return err }
	direct, err := timeN(probeScale.probeOps, func(int) error { _, err := db.Exec(ctx, text); return err })
	if err != nil {
		return err
	}
	alone, err := timeN(probeScale.probeOps, viaSession)
	if err != nil {
		return err
	}
	m["session.exec_overhead_us"] = usec(alone - direct)

	s2, err := pool.Open()
	if err != nil {
		return err
	}
	defer s2.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = s2.Exec(ctx, text) // only its occupancy of the slot matters
			}
		}
	}()
	contended, err := timeN(probeScale.probeOps, viaSession)
	close(stop)
	wg.Wait()
	m["session.admit_wait_us"] = math.Max(0, usec(contended-alone))
	return err
}

// formatProbe times engine.FormatResult on a result shaped like wire_short's
// range_rows (four columns), 10 000 rows of it.
func formatProbe(m map[string]float64, d *dataset) {
	n := min(10_000, len(d.li))
	res := &engine.Result{Cols: []string{"l_orderkey", "l_partkey", "l_quantity", "l_extendedprice"}}
	for i := 0; i < n; i++ {
		r := &d.li[i]
		res.Rows = append(res.Rows, []types.Value{int64Val(r.orderkey), int64Val(r.partkey),
			types.NewInt32(r.quantity), float64Val(r.price)})
	}
	dur, _ := timeOp(probeScale.probe, func() error { _ = engine.FormatResult(res); return nil })
	m["engine.format_mrows_per_s"] = perSec(float64(n)/1e6, dur)
}

// wireCodecProbes times WriteResponse and ReadResponse on a range_rows body.
func wireCodecProbes(m map[string]float64, body string) error {
	var buf bytes.Buffer
	w, err := timeOp(probeScale.probe/3, func() error {
		buf.Reset()
		return wire.WriteResponse(bufio.NewWriter(&buf), "", body)
	})
	if err != nil {
		return err
	}
	framed := buf.Bytes()
	r, err := timeOp(probeScale.probe/3, func() error {
		_, _, err := wire.ReadResponse(bufio.NewReader(bytes.NewReader(framed)))
		return err
	})
	m["wire.write_mbps"] = perSec(float64(len(framed))/1e6, w)
	m["wire.read_mbps"] = perSec(float64(len(framed))/1e6, r)
	return err
}

// --- per-instance probe sets ---

func (in *readInstance) probe(m map[string]float64) error {
	var tables []*colstore.Table
	for _, name := range []string{"lineitem", "orders", "customer"} {
		if st, err := in.db.Store(name); err == nil {
			tables = append(tables, st.Stable())
		}
	}
	if err := storageProbes(m, poolCapacity(in.db), tables...); err != nil {
		return err
	}
	store, err := in.db.Store("lineitem")
	if err != nil {
		return err
	}
	if err := scanOpenProbe(m, store); err != nil {
		return err
	}
	if err := mergeProbe(m, store); err != nil {
		return err
	}
	if err := pdtUpdateProbe(m, store.Stable().Rows()); err != nil {
		return err
	}
	formatProbe(m, in.data)
	if err := sessionProbes(m); err != nil {
		return err
	}
	if err := primitiveProbes(m); err != nil {
		return err
	}
	if len(in.data.ord) > 0 {
		if err := execProbes(m, in.data); err != nil {
			return err
		}
	}
	if store.PendingOps() > 0 {
		// Last, because it folds the deltas into a new stable table.
		t := time.Now()
		if err := store.Checkpoint(); err != nil {
			return err
		}
		m["txn.checkpoint_ms"] = msec(time.Since(t))
	}
	return nil
}

func (in *dmlInstance) probe(m map[string]float64) error {
	store, err := in.db.Store("lineitem")
	if err != nil {
		return err
	}
	m["pdt.ops_pending"] = float64(in.pendingAtCkp)
	if ms := (m["engine.p50_ms.update_key"] + m["engine.p50_ms.delete_key"]) / 2; ms > 0 {
		m["engine.dml_match_krows_per_s"] = float64(len(in.model)) / ms
	}
	m["engine.recover_ms"] = in.recoverMS
	m["engine.recover_records"] = float64(in.recovered)
	if err := pdtUpdateProbe(m, store.Stable().Rows()); err != nil {
		return err
	}
	if err := scanOpenProbe(m, store); err != nil {
		return err
	}
	if err := walProbes(m); err != nil {
		return err
	}
	if _, err := loadProbes(m, store.Stable()); err != nil {
		return err
	}
	// The recovered store still carries the WAL tail's deltas: time folding
	// them, through the same path CHECKPOINT takes minus the statement.
	if store.PendingOps() > 0 {
		t := time.Now()
		if err := store.Checkpoint(); err != nil {
			return err
		}
		m["txn.checkpoint_ms"] = msec(time.Since(t))
	}
	return nil
}

func (in *wireInstance) probe(m map[string]float64) error {
	m["engine.copy_krows_per_s"] = float64(in.copyRows) / 1e3 / in.copySecs
	formatProbe(m, in.data)
	if err := sessionProbes(m); err != nil {
		return err
	}
	for _, st := range in.list {
		if st.tmpl == wireRangeRows && st.first != "" {
			return wireCodecProbes(m, st.first)
		}
	}
	return nil
}

// --- assembling the per-layer metric set ---

// shareNames are the layers the traced run splits client.stmt time into.
var shareNames = []string{"client", "session", "wire", "sql_parse", "engine_compile", "engine_format",
	"engine_rest", "colstore_scan", "bufmgr_get", "compress_decode", "pdt_merge", "fsim_io"}

// allTemplateNames lists every workload's template names, for the
// engine.p50_ms.<template> metrics.
func allTemplateNames() []string {
	var out []string
	for _, t := range scanTemplates {
		out = append(out, t.name)
	}
	out = append(out, deltaExtra.name)
	for _, t := range joinTemplates {
		out = append(out, t.name)
	}
	out = append(out, dmlTemplates...)
	return append(out, wireTemplates...)
}

// perLayerNames is the full, fixed metric set every traced run prints.
func perLayerNames() []string {
	out := []string{
		"compress.decode_mbps.pfor", "compress.decode_mbps.pfordelta", "compress.decode_mbps.rle",
		"compress.decode_mbps.pdict", "compress.decode_mbps.raw", "compress.encode_mbps",
		"compress.ratio", "compress.decode_allocs_per_block",
		"colstore.scan_mrows_per_s.c1", "colstore.scan_mrows_per_s.c3", "colstore.scan_mrows_per_s.c11",
		"colstore.scan_alloc_kb_per_group", "colstore.bytes_decompressed_per_stmt",
		"colstore.groups_skipped_ratio", "colstore.append_krows_per_s", "colstore.bulkload_krows_per_s",
		"colstore.save_mbps", "colstore.load_mbps",
		"bufmgr.hit_ratio", "bufmgr.loads_per_stmt", "bufmgr.evictions_per_stmt",
		"bufmgr.get_us.hit", "bufmgr.get_us.miss",
		"pdt.merge_mrows_per_s", "pdt.merge_slowdown_x", "pdt.update_kops_per_s", "pdt.ops_pending",
		"txn.commit_us", "txn.scan_open_us", "txn.checkpoint_ms", "txn.conflicts",
		"wal.append_us", "wal.fsyncs_per_commit", "wal.bytes_per_commit", "wal.replay_krecords_per_s",
		"fsim.bytes_written_per_user_byte", "fsim.syncs_per_stmt",
		"engine.compile_ms", "engine.alloc_mb_per_stmt", "engine.mallocs_per_stmt", "engine.gc_cpu_share",
		"engine.format_mrows_per_s", "engine.dml_match_krows_per_s", "engine.checkpoint_ms",
		"engine.recover_ms", "engine.recover_records", "engine.copy_krows_per_s",
		"sql.parse_us",
		"exec.hashjoin_build_mrows_per_s", "exec.hashjoin_probe_mrows_per_s",
		"exec.hashagg_mrows_per_s.g6", "exec.hashagg_mrows_per_s.g200k", "exec.sort_mrows_per_s",
		"exec.topn_mrows_per_s", "exec.select_mrows_per_s", "exec.project_mrows_per_s",
		"exec.xchg_speedup_p2", "exec.vectors_per_stmt", "exec.vectorized_speedup_x",
		"primitives.sum_mrows_per_s", "primitives.hash_mrows_per_s", "primitives.checked_mul_mrows_per_s",
		"session.exec_overhead_us", "session.admit_wait_us",
		"wire.roundtrip_us", "wire.write_mbps", "wire.read_mbps", "wire.bytes_per_stmt",
		"bench.trace_overhead_ratio", "bench.attributed_ratio", "bench.replayed_ratio",
	}
	for _, s := range shareNames {
		out = append(out, "bench.share."+s)
	}
	for _, t := range allTemplateNames() {
		out = append(out, "engine.p50_ms."+t)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer assembles the per-layer metrics of a traced run.
func perLayer(inst instance, ms *measured) (map[string]float64, error) {
	m := map[string]float64{}
	for _, n := range perLayerNames() {
		m[n] = 0
	}
	p50 := templateP50s(inst, ms.plain)
	for t, v := range p50 {
		m["engine.p50_ms."+t] = v
	}
	var stmts float64
	for _, r := range ms.plain {
		stmts += float64(len(r.out.samples))
	}
	cd := ms.counterDelta
	m["colstore.bytes_decompressed_per_stmt"] = ratio(cd["colstore_bytes_decompressed_total"], stmts)
	m["colstore.groups_skipped_ratio"] = ratio(cd["colstore_groups_skipped_total"],
		cd["colstore_groups_skipped_total"]+cd["colstore_groups_scanned_total"])
	m["bufmgr.hit_ratio"] = ratio(cd["bufmgr_lru_hits_total"], cd["bufmgr_lru_hits_total"]+cd["bufmgr_lru_loads_total"])
	m["bufmgr.loads_per_stmt"] = ratio(cd["bufmgr_lru_loads_total"], stmts)
	m["bufmgr.evictions_per_stmt"] = ratio(cd["bufmgr_lru_evictions_total"], stmts)
	m["txn.conflicts"] = cd["txn_conflicts_total"]
	m["wal.fsyncs_per_commit"] = ratio(cd["wal_fsyncs_total"], cd["wal_appends_total"])
	m["wal.bytes_per_commit"] = ratio(cd["wal_bytes_total"], cd["wal_appends_total"])
	m["fsim.bytes_written_per_user_byte"] = ratio(cd["bench_fs_bytes_written"], cd["bench_user_bytes_changed"])
	m["fsim.syncs_per_stmt"] = ratio(cd["bench_fs_syncs"], stmts)
	m["wire.bytes_per_stmt"] = ratio(cd["bench_wire_bytes"], stmts)
	var vectors float64
	for k, v := range cd {
		if strings.HasPrefix(k, "exec_vectors_total") {
			vectors += v
		}
	}
	m["exec.vectors_per_stmt"] = ratio(vectors, stmts)
	if inst.enginePID() == "self" {
		// The Go runtime readings describe this process: the engine's only
		// when it runs here.
		m["engine.alloc_mb_per_stmt"] = ratio(float64(ms.mem.alloc)/1e6, stmts)
		m["engine.mallocs_per_stmt"] = ratio(float64(ms.mem.mallocs), stmts)
		var cpu float64
		for _, r := range ms.plain {
			cpu += r.cpu.Seconds()
		}
		m["engine.gc_cpu_share"] = ratio(ms.mem.gcCPU, cpu)
	}
	m["engine.checkpoint_ms"] = p50["checkpoint"]
	if p50["join_group_p2"] > 0 && p50["q1_agg_p2"] > 0 {
		m["exec.xchg_speedup_p2"] = geomean([]float64{p50["join_group"] / p50["join_group_p2"], p50["q1_agg"] / p50["q1_agg_p2"]})
	}
	traceMetrics(m, ms)
	return m, inst.probe(m)
}

// traceMetrics derives the span-based metrics: per-span medians, the share of
// client.stmt time each layer accounts for, and what tracing itself cost.
func traceMetrics(m map[string]float64, ms *measured) {
	spans := ms.spans.spans
	dur, self := durByName(spans), selfByName(spans)
	client := float64(dur["client.stmt"])
	if client == 0 {
		return
	}
	medianOf := func(name string) float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name == name {
				xs = append(xs, float64(s.End-s.Start))
			}
		}
		return median(xs)
	}
	m["sql.parse_us"] = medianOf("sql.parse") / 1e3
	m["wire.roundtrip_us"] = medianOf("wire.echo") / 1e3
	m["engine.compile_ms"] = medianOf("engine.compile") / 1e6
	share := map[string]float64{}
	nested := float64(dur["session.exec"] + dur["wire.roundtrip"])
	share["client"] = client - nested
	share["sql_parse"] = float64(self["sql.parse"])
	share["colstore_scan"] = float64(self["colstore.scan"])
	share["bufmgr_get"] = float64(self["bufmgr.get"])
	share["compress_decode"] = float64(self["compress.decode"])
	share["pdt_merge"] = float64(self["pdt.merge"])
	share["fsim_io"] = float64(self["fsim.io"])
	share["engine_compile"] = float64(self["engine.compile"])
	share["engine_format"] = float64(dur["engine.format"])
	share["wire"] = float64(self["wire.echo"] + dur["wire.codec"])
	if e := float64(dur["engine.exec"]); e > 0 && dur["wire.roundtrip"] == 0 {
		share["session"] = math.Max(0, nested-e-float64(dur["fsim.io"]))
	}
	var named float64
	for _, v := range share {
		named += v
	}
	share["engine_rest"] = math.Max(0, client-named)
	for _, n := range shareNames {
		m["bench.share."+n] = share[n] / client
	}
	// attributed: the part of client.stmt a named child span covers.
	// replayed: the part the replays measured directly (all but engine_rest).
	m["bench.attributed_ratio"] = nested / client
	m["bench.replayed_ratio"] = math.Min(named, client) / client

	rate := func(rs []roundStat) float64 {
		var xs []float64
		for i := range rs {
			if n := len(rs[i].out.samples); n > 0 {
				xs = append(xs, float64(n)/rs[i].latSum().Seconds())
			}
		}
		return median(xs)
	}
	m["bench.trace_overhead_ratio"] = ratio(rate(ms.plain), rate(ms.traced)) - 1
}
