package exec

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"

	"vectorwise/internal/expr"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// The kernel benchmarks feed each materialising operator the same input:
// 128 vectors of 1 024 rows — a float measure, a near-unique and a
// 1 000-valued integer key, a short string.
const (
	benchBatches   = 128
	benchBatchRows = 1024
)

var benchKinds = []types.Kind{types.KindFloat64, types.KindInt64, types.KindInt64, types.KindString}

func benchInput() []*vec.Batch {
	rng := rand.New(rand.NewSource(1))
	labels := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	out := make([]*vec.Batch, benchBatches)
	for i := range out {
		b := vec.NewBatch(benchKinds, benchBatchRows)
		b.SetLen(benchBatchRows)
		for r := 0; r < benchBatchRows; r++ {
			b.Vecs[0].F64[r] = rng.Float64() * 1e5
			b.Vecs[1].I64[r] = rng.Int63n(benchBatches * benchBatchRows)
			b.Vecs[2].I64[r] = rng.Int63n(1000)
			b.Vecs[3].Str[r] = labels[rng.Intn(len(labels))]
		}
		out[i] = b
	}
	return out
}

// drain opens op, reads it to the end and closes it.
func drain(tb testing.TB, op Operator) {
	if err := Run(NewCtx(context.Background()), op, nil); err != nil {
		tb.Fatal(err)
	}
}

func benchOperator(b *testing.B, mk func(src Operator) Operator) {
	in := benchInput()
	b.ReportAllocs()
	b.SetBytes(benchBatches * benchBatchRows) // "MB/s" reads as Mrows/s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(b, mk(NewBatchSupplier(benchKinds, in)))
	}
}

var benchSortKeys = []SortKey{{Col: 0, Desc: true}, {Col: 1}}

func BenchmarkTopN(b *testing.B) {
	benchOperator(b, func(src Operator) Operator { return NewTopN(src, benchSortKeys, 100) })
}

func BenchmarkSort(b *testing.B) {
	benchOperator(b, func(src Operator) Operator { return NewSort(src, benchSortKeys) })
}

func BenchmarkHashJoinBuild(b *testing.B) {
	empty := NewBatchSupplier(benchKinds, nil)
	benchOperator(b, func(src Operator) Operator {
		return NewHashJoin(empty, src, []int{1}, []int{1}, Inner)
	})
}

func BenchmarkHashAggWide(b *testing.B) {
	benchOperator(b, func(src Operator) Operator {
		agg, err := NewHashAgg(src, []int{1}, []AggSpec{{Fn: AggCount, Col: -1}, {Fn: AggMax, Col: 0}})
		if err != nil {
			b.Fatal(err)
		}
		return agg
	})
}

// The allocation guards count objects, not time, so they hold on any
// machine: the regressions they catch (a boxed value per row, a store
// re-copied per vector) are off by orders of magnitude.
func TestTopNAllocatesPerQueryNotPerRow(t *testing.T) {
	in := benchInput()
	top := NewTopN(NewBatchSupplier(benchKinds, in), benchSortKeys, 100)
	ctx := NewCtx(context.Background())
	allocs := testing.AllocsPerRun(5, func() {
		if err := top.Open(ctx); err != nil {
			t.Fatal(err)
		}
		for {
			b, err := top.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
		}
		top.Close()
	})
	// Open allocates slots, output batch and comparator; a run of 131 072
	// rows adds the growth of the slot and scratch slices and nothing else.
	if allocs > 100 {
		t.Fatalf("TopN over %d batches: %.0f allocations", len(in), allocs)
	}
}

func TestJoinBuildAllocatesLogRowsPerColumn(t *testing.T) {
	in := benchInput()
	src := NewBatchSupplier(benchKinds, in)
	ctx := NewCtx(context.Background())
	allocs := testing.AllocsPerRun(5, func() {
		if err := src.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := buildHashTable(ctx, src, []int{1}, -1, false); err != nil {
			t.Fatal(err)
		}
	})
	// Doubling reallocates a column at most log2(rows) times; the rest is
	// the bucket array, the chain links and the hashes.
	rows := benchBatches * benchBatchRows
	limit := float64(len(benchKinds)*bits.Len(uint(rows)) + 16)
	if allocs > limit {
		t.Fatalf("join build over %d batches: %.0f allocations, limit %.0f", len(in), allocs, limit)
	}
}

// scalarAggOverFilter is SELECT COUNT(*), SUM(measure), MIN(key), MAX(label)
// ... WHERE key < 500 over in: an ungrouped aggregate fed by a filter.
func scalarAggOverFilter(tb testing.TB, in []*vec.Batch) *HashAgg {
	pred := expr.NewCall("<", expr.Col(2, "key", types.Int64), expr.CInt(500))
	agg, err := NewHashAgg(NewSelect(NewBatchSupplier(benchKinds, in), pred), nil, []AggSpec{
		{Fn: AggCount, Col: -1}, {Fn: AggSum, Col: 0}, {Fn: AggMin, Col: 1}, {Fn: AggMax, Col: 3}})
	if err != nil {
		tb.Fatal(err)
	}
	return agg
}

func BenchmarkScalarAgg(b *testing.B) {
	benchOperator(b, func(src Operator) Operator {
		agg, err := NewHashAgg(src, nil, []AggSpec{
			{Fn: AggCount, Col: -1}, {Fn: AggSum, Col: 0}, {Fn: AggSum, Col: 2}, {Fn: AggMin, Col: 1}})
		if err != nil {
			b.Fatal(err)
		}
		return agg
	})
}

// An ungrouped aggregate over a filter allocates per query, never per
// vector: twice the input costs not one allocation more.
func TestScalarAggOverFilterAllocatesNothingPerBatch(t *testing.T) {
	in := benchInput()
	allocs := func(batches []*vec.Batch) float64 {
		agg := scalarAggOverFilter(t, batches)
		return testing.AllocsPerRun(5, func() { drain(t, agg) })
	}
	half, full := allocs(in[:len(in)/2]), allocs(in)
	if full != half {
		t.Fatalf("%d batches: %.0f allocations, %d batches: %.0f", len(in)/2, half, len(in), full)
	}
}
