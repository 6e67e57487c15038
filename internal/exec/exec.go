// Package exec is the X100 execution kernel: vectorized physical operators
// composed into pull-based pipelines. Operators exchange *vec.Batch values
// (~1K rows per column) and do all per-value work inside the primitive
// library — the design that makes claim C1 (">10× faster than conventional
// engines") hold.
//
// Every operator polls the query context between batches, which is how
// query cancellation (claim C11) propagates through arbitrarily deep —
// and, with the Xchg operators, parallel — plans.
package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"vectorwise/internal/metrics"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// Operator is a vectorized physical operator.
type Operator interface {
	// Kinds describes the output vectors.
	Kinds() []types.Kind
	// Open prepares the operator tree for execution.
	Open(ctx *Ctx) error
	// Next returns the next batch, or nil at end of stream. The batch is
	// owned by the operator and valid until the following Next or Close.
	Next() (*vec.Batch, error)
	// Close releases resources; must be idempotent and callable after a
	// failed Open.
	Close()
}

// Ctx carries per-query execution state.
type Ctx struct {
	// Ctx cancels the query (user cancellation, timeouts).
	Ctx context.Context
	// VecSize is the vector length; 0 means vec.DefaultSize. Experiment E2
	// sweeps it.
	VecSize int
	// Profile enables per-operator counters (claim C12: monitoring).
	Profile bool
	// Budget caps the bytes materializing operators may accumulate for this
	// query; nil means unlimited. Set by the session layer's admission
	// control.
	Budget *MemBudget

	// shared links sibling operators of one parallel fragment (a morsel
	// queue shared by P scan workers), keyed by the plan-time spec that
	// spawned them. Scoped to the Ctx, so every execution gets fresh state.
	shared sync.Map
}

// SharedState returns the state registered under key, creating it with mk
// on first use. Safe to call concurrently from exchange goroutines; exactly
// one value wins and all callers see it.
func (c *Ctx) SharedState(key any, mk func() any) any {
	if v, ok := c.shared.Load(key); ok {
		return v
	}
	v, _ := c.shared.LoadOrStore(key, mk())
	return v
}

// NewCtx builds a context with defaults.
func NewCtx(ctx context.Context) *Ctx {
	return &Ctx{Ctx: ctx, VecSize: vec.DefaultSize}
}

func (c *Ctx) vecSize() int {
	if c.VecSize <= 0 {
		return vec.DefaultSize
	}
	return c.VecSize
}

// ErrCancelled reports query cancellation (wraps the context error).
var ErrCancelled = errors.New("exec: query cancelled")

// poll checks for cancellation; operators call it once per batch.
func (c *Ctx) poll() error {
	select {
	case <-c.Ctx.Done():
		return errors.Join(ErrCancelled, c.Ctx.Err())
	default:
		return nil
	}
}

// OpStats are per-operator profile counters. SkippedGroups/TotalGroups are
// populated only for scans whose source supports min/max block skipping,
// DecodedBytes only for column-store scans, CodeDropped only for scans that
// filter on dictionary codes; Morsels/MorselSteals only for morsel-driven
// scan workers.
type OpStats struct {
	Batches       int64
	Rows          int64
	Nanos         int64
	SkippedGroups int64
	TotalGroups   int64
	SkippedBytes  int64
	DecodedBytes  int64
	CodeDropped   int64
	Morsels       int64
	MorselSteals  int64
}

// GroupSkipping is implemented by batch sources that prune row groups with
// min/max summaries (colstore scanners); the profiling shell surfaces the
// counters as "skipped=N/M groups".
type GroupSkipping interface {
	SkippedGroups() int
	TotalGroups() int
}

// ByteSkipping extends GroupSkipping with the encoded size of the pruned
// groups — the physical I/O a scan avoided, not just the group count.
type ByteSkipping interface {
	SkippedBytes() int64
}

// ByteDecoding is implemented by batch sources that decode compressed
// column blocks (colstore scanners, and PDT mergers on their behalf): the
// encoded bytes of the projected columns actually decoded.
type ByteDecoding interface {
	DecodedBytes() int64
}

// CodeDropping is implemented by batch sources that filter rows on
// dictionary codes before decoding them (colstore scanners): the rows the
// codes dropped, which the profiling shell surfaces as "dropped=N rows on
// codes".
type CodeDropping interface {
	CodeDroppedRows() int64
}

// skipReporter is the operator-level view of GroupSkipping (MorselScan
// implements it by delegating to its scanner).
type skipReporter interface {
	SkipStats() (skipped, total int64)
}

// byteSkipReporter is the operator-level view of ByteSkipping.
type byteSkipReporter interface {
	SkippedByteStats() int64
}

// byteDecodeReporter is the operator-level view of ByteDecoding.
type byteDecodeReporter interface {
	DecodedByteStats() int64
}

// codeDropReporter is the operator-level view of CodeDropping.
type codeDropReporter interface {
	CodeDropStats() int64
}

// morselReporter is implemented by morsel-driven scan workers; the
// profiling shell surfaces the counters as "morsels=N (stolen=K)" so load
// balance is observable per worker.
type morselReporter interface {
	MorselStats() (morsels, steals int64)
}

// opClassMetrics are the always-on per-operator-class instruments
// (vectors/rows produced). One pair per op name, resolved once and shared
// by every instance of that class; Next pays two atomic adds per batch.
type opClassMetrics struct {
	rows, batches *Counter
}

// Counter aliases the metrics counter so operator code reads naturally.
type Counter = metrics.Counter

var opMetricsCache sync.Map // op name -> *opClassMetrics

func classMetrics(op string) *opClassMetrics {
	if m, ok := opMetricsCache.Load(op); ok {
		return m.(*opClassMetrics)
	}
	m := &opClassMetrics{
		rows:    metrics.Default.Counter(`exec_rows_total{op="` + op + `"}`),
		batches: metrics.Default.Counter(`exec_vectors_total{op="` + op + `"}`),
	}
	actual, _ := opMetricsCache.LoadOrStore(op, m)
	return actual.(*opClassMetrics)
}

// Profiled wraps an operator with counters when profiling is on. The
// engine-wide per-class rows/vectors metrics stay on unconditionally —
// they are two atomic adds per batch, invisible next to the work of
// producing the batch.
type Profiled struct {
	Name  string
	Child Operator
	stats OpStats
	class *opClassMetrics
	on    bool
}

// NewProfiled wraps child.
func NewProfiled(name string, child Operator) *Profiled {
	return &Profiled{Name: name, Child: child, class: classMetrics(name)}
}

// Kinds implements Operator.
func (p *Profiled) Kinds() []types.Kind { return p.Child.Kinds() }

// Open implements Operator.
func (p *Profiled) Open(ctx *Ctx) error {
	p.on = ctx.Profile
	return p.Child.Open(ctx)
}

// Next implements Operator.
func (p *Profiled) Next() (*vec.Batch, error) {
	if !p.on {
		b, err := p.Child.Next()
		if b != nil {
			p.class.batches.Inc()
			p.class.rows.Add(int64(b.Rows()))
		}
		return b, err
	}
	t0 := time.Now()
	b, err := p.Child.Next()
	atomic.AddInt64(&p.stats.Nanos, int64(time.Since(t0)))
	if b != nil {
		atomic.AddInt64(&p.stats.Batches, 1)
		atomic.AddInt64(&p.stats.Rows, int64(b.Rows()))
		p.class.batches.Inc()
		p.class.rows.Add(int64(b.Rows()))
	}
	return b, err
}

// Close implements Operator.
func (p *Profiled) Close() { p.Child.Close() }

// Stats returns a snapshot of the counters.
func (p *Profiled) Stats() OpStats {
	st := OpStats{
		Batches: atomic.LoadInt64(&p.stats.Batches),
		Rows:    atomic.LoadInt64(&p.stats.Rows),
		Nanos:   atomic.LoadInt64(&p.stats.Nanos),
	}
	if sk, ok := p.Child.(skipReporter); ok {
		st.SkippedGroups, st.TotalGroups = sk.SkipStats()
	}
	if bs, ok := p.Child.(byteSkipReporter); ok {
		st.SkippedBytes = bs.SkippedByteStats()
	}
	if bd, ok := p.Child.(byteDecodeReporter); ok {
		st.DecodedBytes = bd.DecodedByteStats()
	}
	if cd, ok := p.Child.(codeDropReporter); ok {
		st.CodeDropped = cd.CodeDropStats()
	}
	if mr, ok := p.Child.(morselReporter); ok {
		st.Morsels, st.MorselSteals = mr.MorselStats()
	}
	return st
}

// Run drains an operator tree, passing each batch to emit; it handles
// Open/Close and converts cancellation into a clean error.
func Run(ctx *Ctx, root Operator, emit func(*vec.Batch) error) error {
	if err := root.Open(ctx); err != nil {
		root.Close()
		return err
	}
	defer root.Close()
	for {
		b, err := root.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if emit != nil {
			if err := emit(b); err != nil {
				return err
			}
		}
	}
}

// Collect drains an operator into boxed rows (tests, small results).
func Collect(ctx *Ctx, root Operator) ([][]types.Value, error) {
	var out [][]types.Value
	err := Run(ctx, root, func(b *vec.Batch) error {
		for i := 0; i < b.Rows(); i++ {
			out = append(out, b.GetRow(i))
		}
		return nil
	})
	return out, err
}
