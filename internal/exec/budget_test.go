package exec

import (
	"context"
	"errors"
	"sync"
	"testing"

	"vectorwise/internal/pdt"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

func seqOperator(n int) Operator {
	kinds := []types.Kind{types.KindInt64}
	var batches []*vec.Batch
	for at := 0; at < n; at += 64 {
		k := n - at
		if k > 64 {
			k = 64
		}
		b := vec.NewBatch(kinds, k)
		b.SetLen(k)
		for i := 0; i < k; i++ {
			b.Vecs[0].Set(i, types.NewInt64(int64(at+i)))
		}
		batches = append(batches, b)
	}
	return NewBatchSupplier(kinds, batches)
}

func TestMemBudgetStopsSort(t *testing.T) {
	ctx := NewCtx(context.Background())
	ctx.Budget = NewMemBudget(256) // far less than 10k rows × 8 bytes
	s := NewSort(seqOperator(10000), []SortKey{{Col: 0, Desc: true}})
	_, err := Collect(ctx, s)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if ctx.Budget.Used() <= 0 {
		t.Fatal("no bytes charged")
	}
}

// ORDER BY … LIMIT n with a huge n is a full sort: TopN charges each slot as
// it is first filled, so the budget sees it, and a small n costs n rows.
func TestMemBudgetStopsTopN(t *testing.T) {
	keys := []SortKey{{Col: 0, Desc: true}}
	ctx := NewCtx(context.Background())
	ctx.Budget = NewMemBudget(256)
	if _, err := Collect(ctx, NewTopN(seqOperator(10000), keys, 50_000_000)); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	ctx = NewCtx(context.Background())
	ctx.Budget = NewMemBudget(256)
	rows, err := Collect(ctx, NewTopN(seqOperator(10000), keys, 10))
	if err != nil || len(rows) != 10 {
		t.Fatalf("top 10 under the budget: %d rows, err %v", len(rows), err)
	}
	if used := ctx.Budget.Used(); used != 10*8 {
		t.Fatalf("charged %d bytes for 10 BIGINT slots", used)
	}
}

// A re-opened Sort or TopN starts from nothing: it emits its new input once.
func TestSortAndTopNReopen(t *testing.T) {
	keys := []SortKey{{Col: 0, Desc: true}}
	for name, op := range map[string]Operator{
		"Sort": NewSort(seqOperator(300), keys),
		"TopN": NewTopN(seqOperator(300), keys, 500),
	} {
		for run := 0; run < 2; run++ {
			rows, err := Collect(NewCtx(context.Background()), op)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 300 || rows[0][0].Int64() != 299 {
				t.Fatalf("%s run %d: %d rows, first %v", name, run, len(rows), rows[0])
			}
		}
	}
}

func TestMemBudgetStopsJoinBuild(t *testing.T) {
	ctx := NewCtx(context.Background())
	ctx.Budget = NewMemBudget(256)
	j := NewHashJoin(seqOperator(10), seqOperator(10000), []int{0}, []int{0}, Inner)
	if _, err := Collect(ctx, j); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestMemBudgetStopsAggGroups(t *testing.T) {
	ctx := NewCtx(context.Background())
	ctx.Budget = NewMemBudget(256) // 10k distinct groups cannot fit
	a, err := NewHashAgg(seqOperator(10000), []int{0}, []AggSpec{{Fn: AggCount, Col: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(ctx, a); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestMemBudgetUnlimitedAndNil(t *testing.T) {
	for _, budget := range []*MemBudget{nil, NewMemBudget(0)} {
		ctx := NewCtx(context.Background())
		ctx.Budget = budget
		rows, err := Collect(ctx, NewSort(seqOperator(5000), []SortKey{{Col: 0}}))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5000 {
			t.Fatalf("rows = %d", len(rows))
		}
	}
}

// The budget is shared across a query's parallel workers: concurrent charges
// against one MemBudget must account every byte (run under -race).
func TestMemBudgetConcurrentCharges(t *testing.T) {
	m := NewMemBudget(1 << 40)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := m.Charge(3); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m.Used() != 8*1000*3 {
		t.Fatalf("used = %d", m.Used())
	}
}

var _ pdt.BatchSource = (*seqBatchSource)(nil)
