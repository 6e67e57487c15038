package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"vectorwise/internal/metrics"
	"vectorwise/internal/pdt"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// Morsel-driven scans: instead of assigning row-group partitions to workers
// at compile time, P scan workers pull row-group morsels from one shared
// queue at run time. Skewed groups self-balance (a worker stuck on a fat
// group simply claims fewer morsels while its siblings steal the rest), and
// deltas arriving between compile and run change what the queue serves —
// never the plan shape.

var mMorselSteals = metrics.Default.Counter("exec_morsel_steals_total")

// MorselScanner is one worker's repositionable view of a table: SeekGroup
// selects a row-group morsel, then Next drains it (done=true at its end).
// colstore.Scanner implements it.
type MorselScanner interface {
	pdt.BatchSource
	SeekGroup(g int)
}

// MorselSource is the run-time view of a table scan, constructed at Open
// (inside the query's snapshot, after every compile-time decision). Either
// the table is morsel-scannable (NumMorsels row groups, one independent
// MorselScanner per worker; zero morsels when nothing can match), or it
// degrades to a single serial stream (SerialMorselSource: the PDT-merge
// path, where delta application is positional over the whole table).
type MorselSource interface {
	// NumMorsels reports how many row-group morsels the snapshot offers.
	NumMorsels() int
	// Worker returns a fresh repositionable scanner (one per worker).
	Worker() (MorselScanner, error)
}

// WindowPruning is implemented by morsel sources that offer only the
// clustered group window of a table: the groups left outside it, and their
// encoded bytes in the projected columns. Worker 0 reports them as skipped,
// so the workers of a scan sum to the whole table whatever its degree.
type WindowPruning interface {
	PrunedGroups() (groups int, bytes int64)
}

// CoopStream delivers row-group morsels with their raw bytes, in whatever
// order benefits the system — the cooperative-scan path, where a shared
// buffer manager decides which group every attached query receives next.
// One stream is shared by all sibling workers of a fragment; each group is
// delivered exactly once across them. ok=false means the scan has consumed
// every group.
type CoopStream interface {
	Next(ctx context.Context) (g int, payload []byte, ok bool, err error)
	// Close detaches from the shared buffer manager; idempotent.
	Close()
}

// CoopMorselSource is a MorselSource whose groups may arrive through a
// cooperative stream. A nil Coop means "scan alone this time" and the
// normal morsel queue applies.
type CoopMorselSource interface {
	MorselSource
	Coop() CoopStream
}

// PayloadSeeker is a MorselScanner that can reposition onto a group whose
// bytes were already delivered (colstore.Scanner.SeekGroupData).
type PayloadSeeker interface {
	SeekGroupData(g int, payload []byte) error
}

// SerialMorselSource wraps a plain batch source as a MorselSource with no
// morsels — the delta-path fallback a single worker claims whole.
func SerialMorselSource(src pdt.BatchSource) MorselSource {
	return serialMorselSource{src: src}
}

// serialMorselSource is recognised by MorselScan, which claims src whole and
// never asks it for a worker scanner.
type serialMorselSource struct{ src pdt.BatchSource }

func (s serialMorselSource) NumMorsels() int                { return 0 }
func (s serialMorselSource) Worker() (MorselScanner, error) { return nil, nil }

// MorselQueue hands out row-group morsels to P workers. Each worker owns a
// contiguous deque (preserving sequential decode locality); when a worker's
// deque runs dry it steals from the back of the fullest sibling. A mutex
// guards the whole structure — at 16K rows per morsel, contention is a few
// dozen lock acquisitions per scanned gigabyte, unmeasurable next to
// decompression.
type MorselQueue struct {
	mu     sync.Mutex
	deques [][]int
	counts []int64 // morsels served per worker (atomic reads for stats)
	steals int64
}

// NewMorselQueue distributes morsels [0, n) contiguously over the workers.
func NewMorselQueue(n, workers int) *MorselQueue {
	if workers < 1 {
		workers = 1
	}
	q := &MorselQueue{
		deques: make([][]int, workers),
		counts: make([]int64, workers),
	}
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		for g := lo; g < hi; g++ {
			q.deques[w] = append(q.deques[w], g)
		}
	}
	return q
}

// Next claims the next morsel for worker w: the front of its own deque, or
// a steal from the back of the fullest sibling. ok=false when the queue is
// exhausted.
func (q *MorselQueue) Next(w int) (g int, stolen bool, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if d := q.deques[w]; len(d) > 0 {
		g = d[0]
		q.deques[w] = d[1:]
		atomic.AddInt64(&q.counts[w], 1)
		return g, false, true
	}
	victim, most := -1, 0
	for i, d := range q.deques {
		if len(d) > most {
			victim, most = i, len(d)
		}
	}
	if victim < 0 {
		return 0, false, false
	}
	d := q.deques[victim]
	g = d[len(d)-1]
	q.deques[victim] = d[:len(d)-1]
	q.steals++
	atomic.AddInt64(&q.counts[w], 1)
	mMorselSteals.Inc()
	return g, true, true
}

// Steals reports how many morsels were claimed by a worker other than the
// one holding them initially.
func (q *MorselQueue) Steals() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.steals
}

// Counts snapshots the per-worker morsel counts.
func (q *MorselQueue) Counts() []int64 {
	out := make([]int64, len(q.counts))
	for i := range out {
		out[i] = atomic.LoadInt64(&q.counts[i])
	}
	return out
}

// morselState is the run-time state the P sibling MorselScan workers of one
// scan share, created lazily under Ctx.SharedState by the first worker to
// open.
type morselState struct {
	once  sync.Once
	err   error
	src   MorselSource
	queue *MorselQueue
	coop  CoopStream

	serial        pdt.BatchSource
	serialClaimed atomic.Bool
	coopClose     sync.Once
}

func (st *morselState) init(workers int, mk func() (MorselSource, error)) {
	st.once.Do(func() {
		src, err := mk()
		if err != nil {
			st.err = err
			return
		}
		st.src = src
		if s, ok := src.(serialMorselSource); ok {
			st.serial = s.src
			return
		}
		if cs, ok := src.(CoopMorselSource); ok {
			if c := cs.Coop(); c != nil {
				st.coop = c
				return
			}
		}
		st.queue = NewMorselQueue(src.NumMorsels(), workers)
	})
}

// closeCoop detaches the shared cooperative stream exactly once, however
// many workers call Close (including after failed Opens).
func (st *morselState) closeCoop() {
	if st.coop != nil {
		st.coopClose.Do(st.coop.Close)
	}
}

// MorselScan is one worker of a morsel-driven scan — the one operator that
// scans a vectorwise table. A serial scan is a scan of one worker, which
// claims its morsels in group order. All workers sharing a Key pull from
// the same MorselQueue; when the source degrades to a serial stream (deltas
// at run time), exactly one worker claims it and the rest come up empty —
// the plan keeps its shape either way.
type MorselScan struct {
	kinds []types.Kind
	// SourceFn builds the shared run-time source at Open, once the vector
	// size and snapshot are known. Only one worker's closure actually runs.
	SourceFn func(vecSize int) (MorselSource, error)
	Key      any // shared-state identity linking sibling workers
	Worker   int
	Workers  int
	OpLabel  string // metrics label, e.g. "ParallelScan"
	// RID makes the scan emit, after the source's columns, one BIGINT vector
	// holding each row's position in the scanned image — what txn.UpdateAt
	// and DeleteAt address rows by. Set before Open.
	RID bool

	ctx     *Ctx
	st      *morselState
	scanner MorselScanner
	serial  pdt.BatchSource
	buf     *vec.Batch
	rid     *vec.Vector
	out     vec.Batch
	inGroup bool
	morsels int64
	stolen  int64
	mCount  *Counter
}

// NewMorselScan builds one scan worker.
func NewMorselScan(kinds []types.Kind, key any, worker, workers int, label string,
	sourceFn func(vecSize int) (MorselSource, error)) *MorselScan {
	return &MorselScan{kinds: kinds, SourceFn: sourceFn, Key: key,
		Worker: worker, Workers: workers, OpLabel: label}
}

// Kinds implements Operator.
func (m *MorselScan) Kinds() []types.Kind {
	if m.RID {
		return append(m.kinds[:len(m.kinds):len(m.kinds)], types.KindInt64)
	}
	return m.kinds
}

// Open implements Operator: resolves (or joins) the shared morsel state.
func (m *MorselScan) Open(ctx *Ctx) error {
	m.ctx = ctx
	m.scanner = nil
	m.serial = nil
	m.inGroup = false
	m.morsels, m.stolen = 0, 0
	label := m.OpLabel
	if label == "" {
		label = "ParallelScan"
	}
	m.mCount = metrics.Default.Counter(`exec_morsels_total{op="` + label + `"}`)
	vecSize := ctx.vecSize()
	if m.RID {
		m.rid = vec.New(types.KindInt64, vecSize)
	}
	m.st = ctx.SharedState(m.Key, func() any { return &morselState{} }).(*morselState)
	m.st.init(m.Workers, func() (MorselSource, error) { return m.SourceFn(vecSize) })
	if m.st.err != nil {
		return m.st.err
	}
	if m.st.serial != nil {
		if m.st.serialClaimed.CompareAndSwap(false, true) {
			m.serial = m.st.serial
			m.morsels++ // the whole merged scan counts as one fat morsel
			m.mCount.Inc()
		}
		m.buf = vec.NewBatch(m.serialKinds(), vecSize)
		return nil
	}
	sc, err := m.st.src.Worker()
	if err != nil {
		return err
	}
	m.scanner = sc
	m.buf = vec.NewBatch(m.kinds, vecSize)
	return nil
}

func (m *MorselScan) serialKinds() []types.Kind {
	if m.serial != nil {
		return m.serial.Kinds()
	}
	return m.kinds
}

// Next implements Operator.
func (m *MorselScan) Next() (*vec.Batch, error) {
	if err := m.ctx.poll(); err != nil {
		return nil, err
	}
	if m.st.serial != nil {
		if m.serial == nil {
			return nil, nil // another worker claimed the serial stream
		}
		start, n, done, err := m.serial.Next(m.buf)
		if err != nil || done {
			return nil, err
		}
		return m.emit(start, n, false), nil
	}
	for {
		if m.inGroup {
			start, n, done, err := m.scanner.Next(m.buf)
			if err != nil {
				return nil, err
			}
			if !done {
				return m.emit(start, n, true), nil
			}
			m.inGroup = false
		}
		if m.st.coop != nil {
			// Cooperative path: the shared stream decides which group this
			// worker gets next, and hands over its bytes with it.
			g, payload, ok, err := m.st.coop.Next(m.ctx.Ctx)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
			m.morsels++
			m.mCount.Inc()
			if ps, can := m.scanner.(PayloadSeeker); can {
				if err := ps.SeekGroupData(g, payload); err != nil {
					return nil, err
				}
			} else {
				m.scanner.SeekGroup(g)
			}
			m.inGroup = true
			continue
		}
		g, stolen, ok := m.st.queue.Next(m.Worker)
		if !ok {
			return nil, nil
		}
		m.morsels++
		if stolen {
			m.stolen++
		}
		m.mCount.Inc()
		m.scanner.SeekGroup(g)
		m.inGroup = true
	}
}

// emit returns the batch the source just filled, numbered when the scan
// projects row positions. physical says how a selection vector relates rows
// to positions: a morsel scanner's selection lists the rows its filters let
// through, and row p sits at start+p; a merger's selection lists the rows a
// delete did not remove, and its i-th row sits at start+i.
func (m *MorselScan) emit(start int64, n int, physical bool) *vec.Batch {
	if !m.RID {
		return m.buf
	}
	return m.appendRID(start, n, physical)
}

// appendRID numbers the n rows of the batch the source just filled, putting
// each number where the row's values are. The output batch is rebuilt from
// buf every time, because a merger may have re-pointed buf at vectors of its
// own.
func (m *MorselScan) appendRID(start int64, n int, physical bool) *vec.Batch {
	full := m.buf.Full()
	m.rid.Grow(full)
	m.rid.SetLen(full)
	ids := m.rid.I64
	switch {
	case m.buf.Sel == nil || physical:
		for p := range ids[:full] {
			ids[p] = start + int64(p)
		}
	default:
		for i, p := range m.buf.Sel[:n] {
			ids[p] = start + int64(i)
		}
	}
	m.out.Vecs = append(append(m.out.Vecs[:0], m.buf.Vecs...), m.rid)
	m.out.Sel = m.buf.Sel
	m.out.ForceLen(full)
	return &m.out
}

// Close implements Operator.
func (m *MorselScan) Close() {
	if m.st != nil {
		m.st.closeCoop()
	}
}

// MorselStats implements the profiling shell's morselReporter.
func (m *MorselScan) MorselStats() (morsels, steals int64) { return m.morsels, m.stolen }

// windowPruned reports the groups (and bytes) the source's clustered window
// left out — on worker 0 only, so they count once per scan.
func (m *MorselScan) windowPruned() (int64, int64) {
	if m.Worker != 0 || m.st == nil {
		return 0, 0
	}
	if wp, ok := m.st.src.(WindowPruning); ok {
		g, b := wp.PrunedGroups()
		return int64(g), b
	}
	return 0, 0
}

// SkipStats reports block-skipping counters: this worker's scanner, plus
// the window-pruned groups on worker 0, in both skipped and total.
func (m *MorselScan) SkipStats() (skipped, total int64) {
	skipped, _ = m.windowPruned()
	total = skipped
	if gs, ok := m.scanner.(GroupSkipping); ok {
		skipped += int64(gs.SkippedGroups())
		total += int64(gs.TotalGroups())
	}
	return skipped, total
}

// SkippedByteStats reports the encoded bytes this worker's scanner skipped,
// plus the window-pruned bytes on worker 0.
func (m *MorselScan) SkippedByteStats() int64 {
	_, bytes := m.windowPruned()
	if bs, ok := m.scanner.(ByteSkipping); ok {
		bytes += bs.SkippedBytes()
	}
	return bytes
}

// DecodedByteStats reports the encoded bytes this worker decoded: through
// its morsel scanner, or through the serial merged stream if it claimed it.
func (m *MorselScan) DecodedByteStats() int64 {
	if bd, ok := m.scanner.(ByteDecoding); ok {
		return bd.DecodedBytes()
	}
	if bd, ok := m.serial.(ByteDecoding); ok {
		return bd.DecodedBytes()
	}
	return 0
}

// CodeDropStats reports the rows this worker's scanner dropped on dictionary
// codes.
func (m *MorselScan) CodeDropStats() int64 {
	if cd, ok := m.scanner.(CodeDropping); ok {
		return cd.CodeDroppedRows()
	}
	return 0
}
