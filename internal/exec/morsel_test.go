package exec

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// Every morsel must be claimed exactly once when P workers race the queue
// to exhaustion (run under -race).
func TestMorselQueueConcurrentExhaustion(t *testing.T) {
	const n, workers = 200, 8
	q := NewMorselQueue(n, workers)
	claimed := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				g, _, ok := q.Next(w)
				if !ok {
					return
				}
				claimed[w] = append(claimed[w], g)
			}
		}(w)
	}
	wg.Wait()
	seen := make([]int, n)
	total := 0
	for _, c := range claimed {
		for _, g := range c {
			seen[g]++
			total++
		}
	}
	if total != n {
		t.Fatalf("claimed %d morsels, want %d", total, n)
	}
	for g, c := range seen {
		if c != 1 {
			t.Fatalf("morsel %d claimed %d times", g, c)
		}
	}
	var counted int64
	for _, c := range q.Counts() {
		counted += c
	}
	if counted != n {
		t.Fatalf("Counts() sums to %d, want %d", counted, n)
	}
}

// One giant row group among many tiny ones: with work stealing, the worker
// stuck on the giant morsel claims few while its siblings steal its deque,
// so no worker ends up with more than 2× the median morsel count.
func TestMorselQueueSkewBalances(t *testing.T) {
	const n, workers = 33, 4
	cost := func(g int) time.Duration {
		if g == 0 {
			return 30 * time.Millisecond // the giant group, owned by worker 0
		}
		return time.Millisecond
	}
	q := NewMorselQueue(n, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				g, _, ok := q.Next(w)
				if !ok {
					return
				}
				time.Sleep(cost(g))
			}
		}(w)
	}
	wg.Wait()
	counts := q.Counts()
	sorted := append([]int64{}, counts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := float64(sorted[workers/2-1]+sorted[workers/2]) / 2
	for w, c := range counts {
		if float64(c) > 2*median {
			t.Fatalf("worker %d claimed %d morsels, > 2× median %.1f (counts=%v)",
				w, c, median, counts)
		}
	}
	if q.Steals() == 0 {
		t.Fatalf("skewed queue saw no steals (counts=%v)", counts)
	}
}

// fakeScanner serves synthetic row groups: group g holds sizes[g] rows with
// values g*1000+i on one BIGINT column.
type fakeScanner struct {
	sizes []int
	g     int
	done  bool
}

func (f *fakeScanner) Kinds() []types.Kind { return []types.Kind{types.KindInt64} }

func (f *fakeScanner) SeekGroup(g int) { f.g = g; f.done = false }

func (f *fakeScanner) Next(b *vec.Batch) (int64, int, bool, error) {
	if f.done {
		return 0, 0, true, nil
	}
	n := f.sizes[f.g]
	b.Reset()
	b.SetLen(n)
	for i := 0; i < n; i++ {
		b.Vecs[0].Set(i, types.NewInt64(int64(f.g*1000+i)))
	}
	f.done = true
	return 0, n, false, nil
}

type fakeMorselSource struct{ sizes []int }

func (s *fakeMorselSource) NumMorsels() int { return len(s.sizes) }

func (s *fakeMorselSource) Worker() (MorselScanner, error) {
	return &fakeScanner{sizes: s.sizes}, nil
}

// morselWorkers builds P MorselScan workers sharing one queue over src.
func morselWorkers(workers int, mk func(int) (MorselSource, error)) []*MorselScan {
	key := new(int)
	out := make([]*MorselScan, workers)
	for w := 0; w < workers; w++ {
		out[w] = NewMorselScan([]types.Kind{types.KindInt64}, key, w, workers,
			"ParallelScan", mk)
	}
	return out
}

func TestMorselScanWorkersShareQueue(t *testing.T) {
	sizes := []int{5, 1, 64, 2, 9, 3, 3, 17, 1, 40, 8, 6}
	want := 0
	for _, s := range sizes {
		want += s
	}
	const workers = 4
	src := &fakeMorselSource{sizes: sizes}
	scans := morselWorkers(workers, func(int) (MorselSource, error) { return src, nil })
	ops := make([]Operator, workers)
	for i, s := range scans {
		ops[i] = s
	}
	rows := collect(t, NewXchgUnion(ops...))
	if len(rows) != want {
		t.Fatalf("parallel scan yielded %d rows, want %d", len(rows), want)
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		seen[r[0].Int64()] = true
	}
	for g, sz := range sizes {
		for i := 0; i < sz; i++ {
			if !seen[int64(g*1000+i)] {
				t.Fatalf("row %d of group %d missing", i, g)
			}
		}
	}
	var morsels int64
	for _, s := range scans {
		m, _ := s.MorselStats()
		morsels += m
	}
	if morsels != int64(len(sizes)) {
		t.Fatalf("workers claimed %d morsels total, want %d", morsels, len(sizes))
	}
}

// seqBatchSource is a serial pdt.BatchSource of n rows (0..n-1).
type seqBatchSource struct {
	n, at int
}

func (s *seqBatchSource) Kinds() []types.Kind { return []types.Kind{types.KindInt64} }

func (s *seqBatchSource) Next(b *vec.Batch) (int64, int, bool, error) {
	if s.at >= s.n {
		return 0, 0, true, nil
	}
	k := s.n - s.at
	if k > 64 {
		k = 64
	}
	b.Reset()
	b.SetLen(k)
	for i := 0; i < k; i++ {
		b.Vecs[0].Set(i, types.NewInt64(int64(s.at+i)))
	}
	s.at += k
	return int64(s.at - k), k, false, nil
}

// A source that degrades to a serial stream at run time must be claimed by
// exactly one worker; the others come up empty but the union stays exact.
func TestMorselScanSerialFallbackSingleClaim(t *testing.T) {
	const rows, workers = 100, 4
	scans := morselWorkers(workers, func(int) (MorselSource, error) {
		return SerialMorselSource(&seqBatchSource{n: rows}), nil
	})
	ops := make([]Operator, workers)
	for i, s := range scans {
		ops[i] = s
	}
	got := collect(t, NewXchgUnion(ops...))
	if len(got) != rows {
		t.Fatalf("serial fallback yielded %d rows, want %d", len(got), rows)
	}
	claimers := 0
	for _, s := range scans {
		if m, _ := s.MorselStats(); m > 0 {
			claimers++
		}
	}
	if claimers != 1 {
		t.Fatalf("%d workers claimed the serial stream, want exactly 1", claimers)
	}
}

// sortedBatches builds one pre-sorted two-column (key, src) child stream.
func sortedBatches(t *testing.T, src int64, keys ...int64) Operator {
	t.Helper()
	kinds := []types.Kind{types.KindInt64, types.KindInt64}
	b := vec.NewBatch(kinds, len(keys)+1)
	b.SetLen(len(keys))
	for i, k := range keys {
		b.Vecs[0].Set(i, types.NewInt64(k))
		b.Vecs[1].Set(i, types.NewInt64(src))
	}
	return NewBatchSupplier(kinds, []*vec.Batch{b})
}

// XchgMerge keeps the union of pre-sorted children globally sorted, and
// duplicate keys come out in child-index order (deterministic ties).
func TestXchgMergeOrderingAndDuplicates(t *testing.T) {
	m := NewXchgMerge([]SortKey{{Col: 0}},
		sortedBatches(t, 0, 1, 2, 2, 5, 9),
		sortedBatches(t, 1, 2, 2, 3, 9),
		sortedBatches(t, 2, 0, 2, 7),
	)
	rows := collect(t, m)
	wantKeys := []int64{0, 1, 2, 2, 2, 2, 2, 3, 5, 7, 9, 9}
	wantSrc := []int64{2, 0, 0, 0, 1, 1, 2, 1, 0, 2, 0, 1}
	if len(rows) != len(wantKeys) {
		t.Fatalf("merge yielded %d rows, want %d: %v", len(rows), len(wantKeys), rows)
	}
	for i, r := range rows {
		if r[0].Int64() != wantKeys[i] || r[1].Int64() != wantSrc[i] {
			t.Fatalf("row %d = (%d, %d), want (%d, %d)",
				i, r[0].Int64(), r[1].Int64(), wantKeys[i], wantSrc[i])
		}
	}
}

// Descending keys merge in descending order.
func TestXchgMergeDescending(t *testing.T) {
	m := NewXchgMerge([]SortKey{{Col: 0, Desc: true}},
		sortedBatches(t, 0, 9, 5, 1),
		sortedBatches(t, 1, 8, 5, 2),
	)
	rows := collect(t, m)
	want := []int64{9, 8, 5, 5, 2, 1}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i, r := range rows {
		if r[0].Int64() != want[i] {
			t.Fatalf("row %d key = %d, want %d", i, r[0].Int64(), want[i])
		}
	}
}

// endless produces batches forever — the pipeline below a LIMIT that quits
// early, exercising exchange teardown.
type endless struct {
	ctx *Ctx
	buf *vec.Batch
}

func (e *endless) Kinds() []types.Kind { return []types.Kind{types.KindInt64} }

func (e *endless) Open(ctx *Ctx) error {
	e.ctx = ctx
	n := ctx.vecSize()
	e.buf = vec.NewBatch(e.Kinds(), n)
	e.buf.SetLen(n)
	for i := 0; i < n; i++ {
		e.buf.Vecs[0].Set(i, types.NewInt64(int64(i)))
	}
	return nil
}

func (e *endless) Next() (*vec.Batch, error) {
	if err := e.ctx.poll(); err != nil {
		return nil, err
	}
	return e.buf, nil
}

func (e *endless) Close() {}

// Early consumer Close (LIMIT above an exchange) must not leak producer
// goroutines: XchgUnion.Close waits for every producer to exit.
func TestXchgUnionEarlyCloseNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		limit := NewLimit(NewXchgUnion(&endless{}, &endless{}, &endless{}), 0, 10)
		rows := collect(t, limit)
		if len(rows) != 10 {
			t.Fatalf("limit rows = %d, want 10", len(rows))
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("goroutines leaked: %d running, baseline %d", g, base)
	}
}

// The same teardown guarantee holds for the order-preserving merge.
func TestXchgMergeEarlyCloseNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		limit := NewLimit(NewXchgMerge([]SortKey{{Col: 0}}, &endless{}, &endless{}), 0, 7)
		rows := collect(t, limit)
		if len(rows) != 7 {
			t.Fatalf("limit rows = %d, want 7", len(rows))
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("goroutines leaked: %d running, baseline %d", g, base)
	}
}
