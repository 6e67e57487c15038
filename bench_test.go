// Package vectorwise_test is the experiment harness: one benchmark family
// per experiment in DESIGN.md §3 (E1…E12), each reproducing the *shape* of
// a claim from "From X100 to Vectorwise". EXPERIMENTS.md records measured
// results against the paper's claims; cmd/vwbench prints the same tables
// outside the testing framework.
package vectorwise_test

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vectorwise/internal/bufmgr"
	"vectorwise/internal/colstore"
	"vectorwise/internal/compress"
	"vectorwise/internal/datagen"
	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/iosim"
	"vectorwise/internal/pdt"
	"vectorwise/internal/primitives"
	"vectorwise/internal/rowengine"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// --- shared fixtures ---

const fixtureRows = 200_000 // lineitem rows for the engine benches

var (
	fixtureOnce sync.Once
	liTable     *colstore.Table      // vectorwise-style storage
	liHeap      *rowengine.HeapTable // classic storage
)

func fixtures(b *testing.B) (*colstore.Table, *rowengine.HeapTable) {
	b.Helper()
	fixtureOnce.Do(func() {
		schema := datagen.LineitemSchema()
		// Column-store copy stores the decomposed physical layout with the
		// comment column dropped (the benches don't touch it), keeping the
		// scan schema NULL-free for direct kernel plumbing.
		phys := types.NewSchema(
			types.Col("l_orderkey", types.Int64),
			types.Col("l_partkey", types.Int64),
			types.Col("l_quantity", types.Int32),
			types.Col("l_extendedprice", types.Float64),
			types.Col("l_discount", types.Float64),
			types.Col("l_tax", types.Float64),
			types.Col("l_returnflag", types.String),
			types.Col("l_linestatus", types.String),
			types.Col("l_shipdate", types.Date),
			types.Col("l_shipmode", types.String),
		)
		liTable = colstore.NewTable(phys)
		ap := liTable.NewAppender()
		liHeap = rowengine.NewHeapTable(phys, -1)
		sf := float64(fixtureRows) / datagen.RowsPerSF
		err := datagen.Lineitems(sf, 42, func(row []types.Value) error {
			r := row[:10]
			if err := ap.AppendRow(r); err != nil {
				return err
			}
			cp := make([]types.Value, 10)
			copy(cp, r)
			_, err := liHeap.Insert(cp)
			return err
		})
		if err != nil {
			panic(err)
		}
		if err := ap.Close(); err != nil {
			panic(err)
		}
		_ = schema
	})
	return liTable, liHeap
}

// q1Cols are the columns the Q1-style query touches.
var q1Cols = []int{8, 2, 3, 4, 6, 7} // shipdate, qty, extprice, discount, flag, status

// q1Cutoff: predicate l_shipdate <= 1998-09-01.
var q1Cutoff = types.DateFromYMD(1998, 9, 1)

// buildQ1Vectorized assembles the X100 plan for the TPC-H-Q1-style query:
//
//	SELECT l_returnflag, l_linestatus, count(*), sum(qty),
//	       sum(extprice*(1-discount)), avg(extprice)
//	FROM lineitem WHERE l_shipdate <= DATE '1998-09-01'
//	GROUP BY l_returnflag, l_linestatus
func buildQ1Vectorized(tab *colstore.Table, vecSize int) (exec.Operator, error) {
	kinds := []types.Kind{types.KindDate, types.KindInt32, types.KindFloat64,
		types.KindFloat64, types.KindString, types.KindString}
	scan := exec.NewColScan(kinds, func(vs int) (pdt.BatchSource, error) {
		if vecSize > 0 {
			vs = vecSize
		}
		return tab.NewScanner(q1Cols, vs)
	})
	sel := exec.NewSelect(scan, expr.NewCall("<=",
		expr.Col(0, "l_shipdate", types.Date), expr.CDate(q1Cutoff)))
	proj := exec.NewProject(sel, []expr.Expr{
		expr.Col(4, "flag", types.String),
		expr.Col(5, "status", types.String),
		expr.Col(1, "qty", types.Int32),
		expr.NewCall("*", expr.Col(2, "extprice", types.Float64),
			expr.NewCall("-", expr.CFloat(1), expr.Col(3, "discount", types.Float64))),
		expr.Col(2, "extprice", types.Float64),
	})
	return exec.NewHashAgg(proj, []int{0, 1}, []exec.AggSpec{
		{Fn: exec.AggCount, Col: -1},
		{Fn: exec.AggSum, Col: 2},
		{Fn: exec.AggSum, Col: 3},
		{Fn: exec.AggAvg, Col: 4},
	})
}

func runVectorized(b *testing.B, op exec.Operator, vecSize int) int {
	b.Helper()
	ctx := exec.NewCtx(context.Background())
	if vecSize > 0 {
		ctx.VecSize = vecSize
	}
	rows, err := exec.Collect(ctx, op)
	if err != nil {
		b.Fatal(err)
	}
	return len(rows)
}

// --- E1: vectorized vs tuple-at-a-time (claim C1, ">10x") ---

func BenchmarkE1_VectorizedQ1(b *testing.B) {
	tab, _ := fixtures(b)
	b.SetBytes(int64(fixtureRows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := buildQ1Vectorized(tab, 0)
		if err != nil {
			b.Fatal(err)
		}
		if got := runVectorized(b, op, 0); got != 6 {
			b.Fatalf("groups: %d", got)
		}
	}
}

func BenchmarkE1_TupleAtATimeQ1(b *testing.B) {
	_, heap := fixtures(b)
	b.SetBytes(int64(fixtureRows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan := rowengine.NewTableScan(heap)
		filt := rowengine.NewFilter(scan, expr.NewCall("<=",
			expr.Col(8, "l_shipdate", types.Date), expr.CDate(q1Cutoff)))
		proj := rowengine.NewMap(filt, []expr.Expr{
			expr.Col(6, "flag", types.String),
			expr.Col(7, "status", types.String),
			expr.Col(2, "qty", types.Int32),
			expr.NewCall("*", expr.Col(3, "extprice", types.Float64),
				expr.NewCall("-", expr.CFloat(1), expr.Col(4, "discount", types.Float64))),
			expr.Col(3, "extprice", types.Float64),
		}, []string{"f", "s", "q", "dp", "ep"})
		agg := rowengine.NewAggRow(proj, []int{0, 1}, []rowengine.RowAggSpec{
			{Fn: "count", Col: -1},
			{Fn: "sum", Col: 2},
			{Fn: "sum", Col: 3},
			{Fn: "avg", Col: 4},
		})
		rows, err := rowengine.CollectRows(context.Background(), agg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("groups: %d", len(rows))
		}
	}
}

// --- E2: vector-size sweep (the X100 U-curve) ---

func BenchmarkE2_VectorSize(b *testing.B) {
	tab, _ := fixtures(b)
	b.ResetTimer()
	for _, vs := range []int{1, 4, 16, 64, 256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("vs=%d", vs), func(b *testing.B) {
			b.SetBytes(int64(fixtureRows))
			for i := 0; i < b.N; i++ {
				op, err := buildQ1Vectorized(tab, vs)
				if err != nil {
					b.Fatal(err)
				}
				if got := runVectorized(b, op, vs); got != 6 {
					b.Fatalf("groups: %d", got)
				}
			}
		})
	}
}

// --- E3: compression ratio and decode bandwidth (claim C2) ---

func compressionInputs() map[string][]int64 {
	rng := rand.New(rand.NewSource(7))
	sorted := make([]int64, 1<<16)
	acc := int64(1_000_000)
	for i := range sorted {
		acc += int64(rng.Intn(8))
		sorted[i] = acc
	}
	smallRange := make([]int64, 1<<16)
	for i := range smallRange {
		smallRange[i] = int64(rng.Intn(100))
	}
	runs := make([]int64, 1<<16)
	for i := range runs {
		runs[i] = int64(i / 4096)
	}
	return map[string][]int64{"sorted": sorted, "smallrange": smallRange, "runs": runs}
}

func BenchmarkE3_Compression(b *testing.B) {
	inputs := compressionInputs()
	codecs := []struct {
		name string
		enc  func([]byte, []int64) []byte
		dec  func([]int64, []byte) ([]int64, []byte, error)
	}{
		{"pfor", compress.EncodePFOR, compress.DecodePFOR},
		{"pfordelta", compress.EncodePFORDelta, compress.DecodePFORDelta},
		{"rle", compress.EncodeRLE, compress.DecodeRLE},
	}
	for _, in := range []string{"sorted", "smallrange", "runs"} {
		vals := inputs[in]
		raw := int64(len(vals) * 8)
		for _, c := range codecs {
			buf := c.enc(nil, vals)
			b.Run(fmt.Sprintf("%s/%s/decode", in, c.name), func(b *testing.B) {
				b.SetBytes(raw)
				b.ReportMetric(float64(raw)/float64(len(buf)), "ratio")
				dst := make([]int64, len(vals))
				for i := 0; i < b.N; i++ {
					var err error
					dst, _, err = c.dec(dst, buf)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		// General-purpose baseline: flate (the heavyweight codec the
		// paper's schemes outrun on decode speed).
		b.Run(fmt.Sprintf("%s/flate/decode", in), func(b *testing.B) {
			var raw8 bytes.Buffer
			for _, v := range vals {
				var tmp [8]byte
				for k := 0; k < 8; k++ {
					tmp[k] = byte(v >> (8 * k))
				}
				raw8.Write(tmp[:])
			}
			var comp bytes.Buffer
			w, _ := flate.NewWriter(&comp, flate.DefaultCompression)
			w.Write(raw8.Bytes())
			w.Close()
			b.SetBytes(raw)
			b.ReportMetric(float64(raw)/float64(comp.Len()), "ratio")
			for i := 0; i < b.N; i++ {
				r := flate.NewReader(bytes.NewReader(comp.Bytes()))
				if _, err := io.Copy(io.Discard, r); err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
		})
	}
}

// --- E4: cooperative scans vs LRU (claim C3) ---

type benchSource struct {
	disk   *iosim.Disk
	chunks int
}

func (m *benchSource) NumChunks() int { return m.chunks }
func (m *benchSource) ReadChunk(ctx context.Context, id int) ([]byte, error) {
	if err := m.disk.Read(ctx, 1<<20); err != nil {
		return nil, err
	}
	return []byte{byte(id)}, nil
}

func BenchmarkE4_CooperativeScans(b *testing.B) {
	const chunks, poolCap = 64, 16
	for _, nScans := range []int{1, 2, 4, 8} {
		for _, policy := range []string{"lru", "abm"} {
			b.Run(fmt.Sprintf("scans=%d/%s", nScans, policy), func(b *testing.B) {
				var totalLoads int64
				for i := 0; i < b.N; i++ {
					disk := iosim.NewDisk(100*time.Microsecond, 0)
					src := &benchSource{disk: disk, chunks: chunks}
					var wg sync.WaitGroup
					progress := make([]chan struct{}, nScans)
					for j := range progress {
						progress[j] = make(chan struct{})
					}
					loads := runScanFleet(policy, src, poolCap, nScans, progress, &wg)
					totalLoads += loads
				}
				b.ReportMetric(float64(totalLoads)/float64(b.N), "loads/op")
			})
		}
	}
}

// runScanFleet drives nScans out-of-phase scans under a policy and returns
// total physical loads.
func runScanFleet(policy string, src bufmgr.Source, poolCap, nScans int, progress []chan struct{}, wg *sync.WaitGroup) int64 {
	ctx := context.Background()
	const offset = 20 // chunks consumed before the next scan starts
	var loadsFn func() int64
	var mkStep func() func() bool
	switch policy {
	case "abm":
		a := bufmgr.NewABM(src, poolCap)
		loadsFn = func() int64 { return a.Stats().Loads }
		mkStep = func() func() bool {
			s := a.Attach()
			return func() bool {
				_, _, ok, err := s.Next(ctx)
				return err == nil && ok
			}
		}
	default:
		p := bufmgr.NewLRUPool(src, poolCap)
		loadsFn = func() int64 { return p.Stats().Loads }
		mkStep = func() func() bool {
			s := bufmgr.NewNormalScan(p)
			return func() bool {
				_, _, ok, err := s.Next(ctx)
				return err == nil && ok
			}
		}
	}
	for i := 0; i < nScans; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i > 0 {
				<-progress[i-1]
			}
			step := mkStep()
			consumed, released := 0, false
			for step() {
				consumed++
				if consumed == offset && !released {
					close(progress[i])
					released = true
				}
			}
			if !released {
				close(progress[i])
			}
		}(i)
	}
	wg.Wait()
	return loadsFn()
}

// --- E5: PDT updates vs naive alternatives (claim C4) ---

func BenchmarkE5_PDTUpdate(b *testing.B) {
	const stableRows = 1_000_000
	rng := rand.New(rand.NewSource(3))
	b.Run("pdt-modify", func(b *testing.B) {
		p := pdt.New()
		row := []types.Value{types.NewInt64(1)}
		_ = row
		for i := 0; i < b.N; i++ {
			at := rng.Int63n(stableRows)
			if err := p.ModifyAt(at, 0, types.NewInt64(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pdt-insert", func(b *testing.B) {
		p := pdt.New()
		row := []types.Value{types.NewInt64(1)}
		for i := 0; i < b.N; i++ {
			at := rng.Int63n(stableRows)
			if err := p.InsertAt(at, row); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Naive alternative: rewriting the stored block containing the row
	// (in-place update of compressed storage means re-encoding a block).
	b.Run("naive-block-rewrite", func(b *testing.B) {
		vals := make([]int64, colstore.BlockRows)
		for i := range vals {
			vals[i] = int64(i)
		}
		enc, _ := compress.ChooseInt64(nil, vals)
		for i := 0; i < b.N; i++ {
			dec, _, err := compress.DecodeInt64(nil, enc)
			if err != nil {
				b.Fatal(err)
			}
			dec[rng.Intn(len(dec))] = int64(i)
			enc, _ = compress.ChooseInt64(enc[:0], dec)
		}
	})
}

func BenchmarkE5_MergeScanOverhead(b *testing.B) {
	const rows = 1_000_000
	tab := colstore.NewTable(types.NewSchema(types.Col("v", types.Int64)))
	ap := tab.NewAppender()
	for i := 0; i < rows; i++ {
		if err := ap.AppendRow([]types.Value{types.NewInt64(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	ap.Close()
	for _, deltas := range []int{0, 1000, 10000, 100000} {
		p := pdt.New()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < deltas; i++ {
			p.ModifyAt(rng.Int63n(rows), 0, types.NewInt64(-1))
		}
		ops := p.Ops()
		b.Run(fmt.Sprintf("deltas=%d", deltas), func(b *testing.B) {
			b.SetBytes(rows * 8)
			for i := 0; i < b.N; i++ {
				sc, err := tab.NewScanner([]int{0}, vec.DefaultSize)
				if err != nil {
					b.Fatal(err)
				}
				m := pdt.NewMergerOps(sc, ops, []int{0})
				batch := vec.NewBatch(m.Kinds(), 0)
				var total int64
				for {
					_, n, done, err := m.Next(batch)
					if err != nil {
						b.Fatal(err)
					}
					if done {
						break
					}
					total += int64(n)
				}
				if total != rows {
					b.Fatalf("rows: %d", total)
				}
			}
		})
	}
}

// --- E6: multi-core scaling via exchange operators (claim C9) ---

func BenchmarkE6_ParallelAggregation(b *testing.B) {
	tab, _ := fixtures(b)
	b.ResetTimer()
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", p), func(b *testing.B) {
			b.SetBytes(int64(fixtureRows))
			for i := 0; i < b.N; i++ {
				root, err := buildParallelQ1(tab, p)
				if err != nil {
					b.Fatal(err)
				}
				rows, err := exec.Collect(exec.NewCtx(context.Background()), root)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 6 {
					b.Fatalf("groups: %d", len(rows))
				}
			}
		})
	}
}

// tableMorsels serves a bare table's row groups as morsels, the way the
// engine's stable morsel source does.
type tableMorsels struct {
	tab     *colstore.Table
	cols    []int
	vecSize int
}

func (s tableMorsels) NumMorsels() int { return s.tab.NumBlocks() }
func (s tableMorsels) Worker() (exec.MorselScanner, error) {
	return s.tab.NewMorselScanner(s.cols, s.vecSize)
}
func (s tableMorsels) Serial() (pdt.BatchSource, error) {
	return s.tab.NewScanner(s.cols, s.vecSize)
}

// buildParallelQ1 builds the exchange plan the rewriter's parallelizer
// emits: morsel-scan workers feeding partial aggregates, unioned into a
// final aggregate.
func buildParallelQ1(tab *colstore.Table, parts int) (exec.Operator, error) {
	if parts <= 1 {
		return buildQ1Vectorized(tab, 0)
	}
	kinds := []types.Kind{types.KindDate, types.KindInt32, types.KindFloat64,
		types.KindFloat64, types.KindString, types.KindString}
	queue := new(int) // shared-state key linking the workers to one morsel queue
	var partials []exec.Operator
	for part := 0; part < parts; part++ {
		scan := exec.NewMorselScan(kinds, queue, part, parts, "ParallelScan",
			func(vs int) (exec.MorselSource, error) {
				return tableMorsels{tab: tab, cols: q1Cols, vecSize: vs}, nil
			})
		sel := exec.NewSelect(scan, expr.NewCall("<=",
			expr.Col(0, "l_shipdate", types.Date), expr.CDate(q1Cutoff)))
		proj := exec.NewProject(sel, []expr.Expr{
			expr.Col(4, "flag", types.String),
			expr.Col(5, "status", types.String),
			expr.Col(1, "qty", types.Int32),
			expr.NewCall("*", expr.Col(2, "ep", types.Float64),
				expr.NewCall("-", expr.CFloat(1), expr.Col(3, "disc", types.Float64))),
			expr.Col(2, "ep", types.Float64),
		})
		partial, err := exec.NewHashAgg(proj, []int{0, 1}, []exec.AggSpec{
			{Fn: exec.AggCount, Col: -1},
			{Fn: exec.AggSum, Col: 2},
			{Fn: exec.AggSum, Col: 3},
			{Fn: exec.AggSum, Col: 4},
			{Fn: exec.AggCount, Col: -1},
		})
		if err != nil {
			return nil, err
		}
		partials = append(partials, partial)
	}
	xchg := exec.NewXchgUnion(partials...)
	final, err := exec.NewHashAgg(xchg, []int{0, 1}, []exec.AggSpec{
		{Fn: exec.AggSum, Col: 2},
		{Fn: exec.AggSum, Col: 3},
		{Fn: exec.AggSum, Col: 4},
		{Fn: exec.AggSum, Col: 5},
		{Fn: exec.AggSum, Col: 6},
	})
	if err != nil {
		return nil, err
	}
	// Final AVG = sum/count.
	return exec.NewProject(final, []expr.Expr{
		expr.Col(0, "flag", types.String),
		expr.Col(1, "status", types.String),
		expr.Col(2, "count", types.Int64),
		expr.Col(3, "sumqty", types.Int64),
		expr.Col(4, "sumdisc", types.Float64),
		expr.NewCall("/", expr.Col(5, "sumep", types.Float64),
			expr.NewCall("cast_float64", expr.Col(6, "cnt", types.Int64))),
	}), nil
}

// --- E7: NULL representation (claim C6) ---

func nullFixtures() (vals []float64, inds []bool) {
	rng := rand.New(rand.NewSource(11))
	n := 1 << 20
	vals = make([]float64, n)
	inds = make([]bool, n)
	for i := range vals {
		if rng.Intn(10) == 0 {
			inds[i] = true // NULL: safe value 0
		} else {
			vals[i] = rng.Float64() * 100
		}
	}
	return
}

func BenchmarkE7_Nulls(b *testing.B) {
	vals, inds := nullFixtures()
	n := len(vals)
	b.Run("decomposed", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			s, cnt := primitives.DecomposedSumDirect(vals, inds, nil, n)
			if s == 0 || cnt == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("null-aware-branchy", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			s, cnt := primitives.NullAwareSumDirect(vals, inds, nil, n)
			if s == 0 || cnt == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("boxed-tuple", func(b *testing.B) {
		boxed := make([]types.Value, n)
		for i := range boxed {
			if inds[i] {
				boxed[i] = types.NewNull(types.KindFloat64)
			} else {
				boxed[i] = types.NewFloat64(vals[i])
			}
		}
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			var s float64
			var cnt int64
			for _, v := range boxed {
				if !v.Null {
					s += v.F64
					cnt++
				}
			}
			if s == 0 || cnt == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// --- E8: checked arithmetic (claim C8) ---

func BenchmarkE8_CheckedArithmetic(b *testing.B) {
	n := 1 << 20
	x := make([]int64, n)
	y := make([]int64, n)
	rng := rand.New(rand.NewSource(5))
	for i := range x {
		x[i] = rng.Int63n(1 << 30)
		y[i] = rng.Int63n(1 << 30)
	}
	dst := make([]int64, n)
	b.Run("unchecked", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			primitives.AddVV(dst, x, y, nil)
		}
	})
	b.Run("checked-vectorized", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			if err := primitives.CheckedAddVV(dst, x, y, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checked-naive", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			if err := primitives.NaiveCheckedAddVV(dst, x, y, nil, primitives.NaiveAddOverflowCheck[int64]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E9: kernel-native vs rewriter-lowered functions (claim C7) ---

func BenchmarkE9_FunctionLowering(b *testing.B) {
	n := 1 << 18
	strs := make([]string, n)
	nums := make([]int64, n)
	rng := rand.New(rand.NewSource(13))
	for i := range strs {
		strs[i] = "  padded value  "
		nums[i] = rng.Int63n(2000) - 1000
	}
	strBatch := vec.NewBatch([]types.Kind{types.KindString}, n)
	strBatch.SetLen(n)
	copy(strBatch.Vecs[0].Str, strs)
	numBatch := vec.NewBatch([]types.Kind{types.KindInt64}, n)
	numBatch.SetLen(n)
	copy(numBatch.Vecs[0].I64, nums)

	cases := []struct {
		name  string
		e     expr.Expr
		kinds []types.Kind
		batch *vec.Batch
	}{
		{"trim-native", expr.NewCall("trim", expr.Col(0, "s", types.String)),
			[]types.Kind{types.KindString}, strBatch},
		{"trim-lowered", expr.NewCall("ltrim", expr.NewCall("rtrim", expr.Col(0, "s", types.String))),
			[]types.Kind{types.KindString}, strBatch},
		{"abs-native", expr.NewCall("abs", expr.Col(0, "x", types.Int64)),
			[]types.Kind{types.KindInt64}, numBatch},
		{"abs-lowered", expr.NewCall("max2", expr.Col(0, "x", types.Int64),
			expr.NewCall("neg", expr.Col(0, "x", types.Int64))),
			[]types.Kind{types.KindInt64}, numBatch},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			ev, err := expr.Compile(c.e, c.kinds, expr.Mode{})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(c.batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E10: query cancellation latency (claim C11) ---

func BenchmarkE10_CancelLatency(b *testing.B) {
	tab, _ := fixtures(b)
	b.ResetTimer()
	var totalLatency time.Duration
	for i := 0; i < b.N; i++ {
		root, err := buildParallelQ1(tab, 4)
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ectx := exec.NewCtx(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = exec.Collect(ectx, root)
		}()
		time.Sleep(2 * time.Millisecond) // let the fleet spin up
		t0 := time.Now()
		cancel()
		<-done
		totalLatency += time.Since(t0)
	}
	b.ReportMetric(float64(totalLatency.Microseconds())/float64(b.N), "cancel-µs")
}

// --- E11: anti-join NULL semantics performance (claim C10) ---

func BenchmarkE11_AntiJoin(b *testing.B) {
	const probeN, buildN = 500_000, 50_000
	mk := func() (exec.Operator, exec.Operator) {
		schema := types.NewSchema(types.Col("v", types.Int64), types.Col("v_null", types.Bool))
		probe := make([][]types.Value, probeN)
		rng := rand.New(rand.NewSource(17))
		for i := range probe {
			probe[i] = []types.Value{types.NewInt64(rng.Int63n(1 << 20)), types.NewBool(false)}
		}
		build := make([][]types.Value, buildN)
		for i := range build {
			build[i] = []types.Value{types.NewInt64(rng.Int63n(1 << 20)), types.NewBool(false)}
		}
		return exec.NewValues(schema, probe), exec.NewValues(schema, build)
	}
	for _, jt := range []exec.JoinType{exec.Anti, exec.AntiNullAware} {
		b.Run(jt.String(), func(b *testing.B) {
			b.SetBytes(probeN * 8)
			for i := 0; i < b.N; i++ {
				probe, build := mk()
				j := exec.NewHashJoin(probe, build, []int{0}, []int{0}, jt)
				if jt == exec.AntiNullAware {
					j.LeftKeyNull, j.RightKeyNull = 1, 1
				}
				ctx := exec.NewCtx(context.Background())
				n := 0
				err := exec.Run(ctx, j, func(batch *vec.Batch) error {
					n += batch.Rows()
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("no anti rows")
				}
			}
		})
	}
}

// --- E12: dual storage engines (claim C5) ---

func BenchmarkE12_PointLookup(b *testing.B) {
	schema := types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Float64))
	const rows = 100_000
	heap := rowengine.NewHeapTable(schema, 0)
	tab := colstore.NewTable(schema)
	ap := tab.NewAppender()
	for i := 0; i < rows; i++ {
		r := []types.Value{types.NewInt64(int64(i)), types.NewFloat64(float64(i))}
		if _, err := heap.Insert(r); err != nil {
			b.Fatal(err)
		}
		if err := ap.AppendRow(r); err != nil {
			b.Fatal(err)
		}
	}
	ap.Close()
	rng := rand.New(rand.NewSource(21))
	b.Run("heap-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			row, err := heap.Lookup(rng.Int63n(rows))
			if err != nil || row == nil {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("vectorwise-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			key := rng.Int63n(rows)
			kv := types.NewInt64(key)
			sc, err := tab.NewScanner([]int{0, 1}, vec.DefaultSize,
				colstore.RangeFilter{Col: 0, Lo: &kv, Hi: &kv})
			if err != nil {
				b.Fatal(err)
			}
			batch := vec.NewBatch(sc.Kinds(), 0)
			found := false
			for {
				_, n, done, err := sc.Next(batch)
				if err != nil {
					b.Fatal(err)
				}
				if done {
					break
				}
				for r := 0; r < n; r++ {
					if batch.Vecs[0].I64[batch.RowIndex(r)] == key {
						found = true
					}
				}
			}
			if !found {
				b.Fatal("not found")
			}
		}
	})
	b.Run("heap-fullscan-agg", func(b *testing.B) {
		b.SetBytes(rows * 8)
		for i := 0; i < b.N; i++ {
			agg := rowengine.NewAggRow(rowengine.NewTableScan(heap), nil,
				[]rowengine.RowAggSpec{{Fn: "sum", Col: 1}})
			if _, err := rowengine.CollectRows(context.Background(), agg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vectorwise-fullscan-agg", func(b *testing.B) {
		b.SetBytes(rows * 8)
		for i := 0; i < b.N; i++ {
			scan := exec.NewColScan([]types.Kind{types.KindFloat64}, func(vs int) (pdt.BatchSource, error) {
				return tab.NewScanner([]int{1}, vs)
			})
			agg, err := exec.NewHashAgg(scan, nil, []exec.AggSpec{{Fn: exec.AggSum, Col: 0}})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Collect(exec.NewCtx(context.Background()), agg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
