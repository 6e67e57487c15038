// Package txn layers snapshot-isolation transactions over Positional Delta
// Trees, following the Vectorwise design the paper sketches ("Transactions
// in Vectorwise are based on Positional Delta Trees; implementing full
// transactional support ... was quite complicated"):
//
//   - the *stable* table (internal/colstore) is immutable,
//   - the shared *read-PDT* holds all committed deltas since the last
//     checkpoint,
//   - each transaction gets a snapshot (stable + the published read-PDT,
//     shared by pointer and immutable while anyone reads it) plus a private
//     *write-PDT*; its own scans see stable ∘ snapshot ∘ write,
//   - commit validates positionally (first-committer-wins on stable rows)
//     and replays the write-PDT onto the shared read-PDT by stable SID,
//   - a checkpoint merges the read-PDT into a new stable table in the
//     background ("background update propagation").
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"vectorwise/internal/colstore"
	"vectorwise/internal/metrics"
	"vectorwise/internal/pdt"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
	"vectorwise/internal/wal"
)

// Transaction-layer instruments.
var (
	mCommits     = metrics.Default.Counter("txn_commits_total")
	mAborts      = metrics.Default.Counter("txn_aborts_total")
	mConflicts   = metrics.Default.Counter("txn_conflicts_total")
	mCheckpoints = metrics.Default.Counter("txn_checkpoints_total")
)

// ErrConflict is returned by Commit when a concurrent transaction committed
// a change to a stable row this transaction also deleted or modified.
var ErrConflict = errors.New("txn: write-write conflict")

// ErrSnapshotTooOld is returned by Commit when a checkpoint rewrote the
// stable table after this transaction's snapshot was taken.
var ErrSnapshotTooOld = errors.New("txn: snapshot predates a checkpoint")

// ErrClosed is returned when using a finished transaction.
var ErrClosed = errors.New("txn: transaction already committed or aborted")

// Store is one table's transactional state.
type Store struct {
	mu     sync.Mutex
	stable *colstore.Table
	// read is the published version of the committed deltas. Snapshots and
	// a running checkpoint share it by pointer, and readers counts them. A
	// commit changes read in place only when readers is 0, and publishes a
	// changed clone otherwise (see writable): a tree anybody reads never
	// changes.
	read    *pdt.PDT
	readers int
	seq     int64 // commit sequence
	epoch   int64 // checkpoint epoch
	commits []commitRecord
	active  int

	// Durability hooks, nil for in-memory stores. log receives every commit
	// before it mutates the shared read-PDT (write-ahead); persist makes a
	// freshly checkpointed stable table durable before it is swapped in.
	log        *wal.WAL
	name       string // table name used in WAL records
	lastWalSeq uint64 // WAL seq of the latest commit applied to read-PDT
	persist    func(stable *colstore.Table, throughSeq uint64) error
}

type commitRecord struct {
	seq     int64
	touched map[int64]struct{} // stable SIDs deleted or modified
}

// NewStore wraps a stable table.
func NewStore(stable *colstore.Table) *Store {
	return &Store{stable: stable, read: pdt.New()}
}

// SetDurable attaches a write-ahead log and a checkpoint-persist hook.
// Commits append a logical record under name and block on the log's fsync
// before publishing; Checkpoint calls persist with the fresh stable table
// and the WAL sequence it covers, before swapping it in. Must be called
// before any transactions run.
func (s *Store) SetDurable(log *wal.WAL, name string, persist func(*colstore.Table, uint64) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = log
	s.name = name
	s.persist = persist
}

// LastWalSeq returns the WAL sequence of the latest commit applied to the
// shared read-PDT (0 if none since open).
func (s *Store) LastWalSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastWalSeq
}

// ApplyRecovered replays one recovered WAL record onto the shared
// read-PDT during crash recovery, before any transactions run. Records
// must arrive in sequence order.
func (s *Store) ApplyRecovered(rec *wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := applyOps(s.writable(), rec.Ops); err != nil {
		return fmt.Errorf("txn: replaying wal record %d: %w", rec.Seq, err)
	}
	s.seq++
	s.lastWalSeq = rec.Seq
	return nil
}

// Stable returns the current stable table (tests, checkpointing tools).
func (s *Store) Stable() *colstore.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stable
}

// Schema returns the table's physical schema.
func (s *Store) Schema() *types.Schema { return s.Stable().Schema() }

// Rows returns the committed image row count.
func (s *Store) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.read.ImageRows(s.stable.Rows())
}

// PendingOps returns the committed-but-not-checkpointed delta count.
func (s *Store) PendingOps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.read.Len()
}

// Txn is one transaction over a Store. Not safe for concurrent use by
// multiple goroutines (like a session).
type Txn struct {
	store      *Store
	snapSeq    int64
	snapEpoch  int64
	snapStable *colstore.Table
	snapRead   *pdt.PDT
	write      *pdt.PDT
	touched    map[int64]struct{} // stable SIDs deleted/modified
	insOnly    bool               // no del/mod of non-stable rows seen
	nonStable  bool               // touched a row inserted by another txn
	done       bool
}

// Begin starts a transaction with a snapshot of the current image.
func (s *Store) Begin() *Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active++
	s.readers++
	return &Txn{
		store:      s,
		snapSeq:    s.seq,
		snapEpoch:  s.epoch,
		snapStable: s.stable,
		snapRead:   s.read,
		write:      pdt.New(),
		touched:    make(map[int64]struct{}),
	}
}

// Rows returns the row count visible to this transaction.
func (t *Txn) Rows() int64 {
	return t.write.ImageRows(t.snapRead.ImageRows(t.snapStable.Rows()))
}

// StableSnapshot exposes the stable table this transaction reads (for
// delta-free fast paths such as morsel scans).
func (t *Txn) StableSnapshot() *colstore.Table { return t.snapStable }

// DeltaFree reports whether the snapshot image equals the stable table
// (no committed or private deltas) — the precondition for scanning the
// stable table directly.
func (t *Txn) DeltaFree() bool { return t.snapRead.Len() == 0 && t.write.Len() == 0 }

// Scan returns a positional batch source over the cols projection of the
// transaction's image, in order: stable table merged with the snapshot
// read-PDT merged with the private write-PDT, each merge layer left out
// when its PDT is empty. Merging is positional, so every stable row flows
// — no block skipping — but only the projected columns are decoded: the
// mergers read inserted rows and modifies through the same projection.
func (t *Txn) Scan(cols []int, vecSize int) (pdt.BatchSource, error) {
	if t.done {
		return nil, ErrClosed
	}
	sc, err := t.snapStable.NewScanner(cols, vecSize)
	if err != nil {
		return nil, err
	}
	var src pdt.BatchSource = sc
	for _, layer := range [...]*pdt.PDT{t.snapRead, t.write} {
		if layer.Len() > 0 {
			src = pdt.NewMerger(src, layer, cols)
		}
	}
	return src, nil
}

// InsertRow appends a row at the end of the transaction's image.
func (t *Txn) InsertRow(row []types.Value) error {
	if t.done {
		return ErrClosed
	}
	return t.write.InsertAt(t.Rows(), row)
}

// InsertRowAt inserts a row at an arbitrary image position.
func (t *Txn) InsertRowAt(rid int64, row []types.Value) error {
	if t.done {
		return ErrClosed
	}
	if rid < 0 || rid > t.Rows() {
		return fmt.Errorf("txn: insert position %d out of range [0,%d]", rid, t.Rows())
	}
	return t.write.InsertAt(rid, row)
}

// DeleteAt deletes the row at image position rid.
func (t *Txn) DeleteAt(rid int64) error {
	if t.done {
		return ErrClosed
	}
	if rid < 0 || rid >= t.Rows() {
		return fmt.Errorf("txn: delete position %d out of range [0,%d)", rid, t.Rows())
	}
	t.recordTouch(rid)
	return t.write.DeleteAt(rid)
}

// UpdateAt modifies one column of the row at image position rid.
func (t *Txn) UpdateAt(rid int64, col int, v types.Value) error {
	if t.done {
		return ErrClosed
	}
	if rid < 0 || rid >= t.Rows() {
		return fmt.Errorf("txn: update position %d out of range [0,%d)", rid, t.Rows())
	}
	if col < 0 || col >= t.snapStable.Schema().Len() {
		return fmt.Errorf("txn: column %d out of range", col)
	}
	t.recordTouch(rid)
	return t.write.ModifyAt(rid, col, v)
}

// recordTouch maps an image position to its stable SID for conflict
// validation. Rows not backed by stable storage (inserted by this txn or a
// concurrently committed one) are tracked via the nonStable flag.
func (t *Txn) recordTouch(rid int64) {
	snapPos, insertedByMe := t.write.Resolve(rid)
	if insertedByMe {
		return // own insert: no conflict possible
	}
	sid, insertedBelow := t.snapRead.Resolve(snapPos)
	if insertedBelow {
		t.nonStable = true // committed insert: positional rebase unsafe
		return
	}
	t.touched[sid] = struct{}{}
}

// Abort discards the transaction. Only transactions that buffered writes
// count as aborted — releasing a read-only snapshot is routine query
// teardown, not a rollback.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.store.mu.Lock()
	t.store.active--
	t.store.release(t.snapRead)
	t.store.mu.Unlock()
	if t.write.Len() > 0 {
		mAborts.Inc()
	}
}

// Commit validates and publishes the transaction's writes.
func (t *Txn) Commit() error {
	if t.done {
		return ErrClosed
	}
	s := t.store
	s.mu.Lock()
	defer s.mu.Unlock()
	t.done = true
	s.active--
	s.release(t.snapRead)
	if t.write.Len() == 0 {
		mCommits.Inc()
		return nil // read-only
	}
	if t.snapEpoch != s.epoch {
		return ErrSnapshotTooOld
	}
	intervening := s.seq > t.snapSeq
	if t.nonStable && intervening {
		// We touched a row that exists only in the read-PDT; concurrent
		// commits may have shifted it, so positional replay is unsafe.
		mConflicts.Inc()
		return ErrConflict
	}
	if intervening {
		for _, rec := range s.commits {
			if rec.seq <= t.snapSeq {
				continue
			}
			for sid := range t.touched {
				if _, clash := rec.touched[sid]; clash {
					mConflicts.Inc()
					return ErrConflict
				}
			}
		}
	}
	// Translate the write-PDT into the logical ops this commit applies to
	// the shared read-PDT. Positions in the write-PDT are relative to the
	// snapshot image; on the fast path (nothing moved since the snapshot)
	// positional replay is exact and preserves intra-anchor insert order,
	// otherwise each op is re-anchored at its stable SID (invariant under
	// concurrent commits). Validation happens here, BEFORE the WAL append:
	// only ops certain to apply may be logged.
	var ops []wal.Op
	if !intervening {
		ops = positionalOps(t.write)
	} else {
		var err error
		if ops, err = t.anchoredOps(); err != nil {
			mConflicts.Inc()
			return err
		}
	}
	// Write-ahead: the record must be durable before the read-PDT changes.
	// Holding s.mu here serializes this table's commits in WAL order;
	// commits to other tables still coalesce into shared fsyncs.
	if s.log != nil {
		seq, err := s.log.Append(s.name, ops)
		if err != nil {
			return fmt.Errorf("txn: wal append: %w", err)
		}
		s.lastWalSeq = seq
	}
	if err := applyOps(s.writable(), ops); err != nil {
		return err
	}
	s.seq++
	if len(t.touched) > 0 {
		s.commits = append(s.commits, commitRecord{seq: s.seq, touched: t.touched})
	}
	mCommits.Inc()
	return nil
}

// release drops a snapshot of read. Only snapshots of the published version
// are counted: a version a commit or checkpoint has replaced is never
// changed again. Called with s.mu held.
func (s *Store) release(read *pdt.PDT) {
	if read == s.read {
		s.readers--
	}
}

// writable returns the read-PDT a commit may change in place: the published
// one when nobody reads it, otherwise a fresh clone that replaces it, so
// the snapshots keep the version they began on. Called with s.mu held.
func (s *Store) writable() *pdt.PDT {
	if s.readers > 0 {
		s.read, s.readers = s.read.Clone(), 0
	}
	return s.read
}

// positionalOps flattens a write-PDT into positional wal ops, baking in the
// running shift of replaying them in order (an earlier insert moves later
// positions up, a delete down); applyOps replays them.
func positionalOps(write *pdt.PDT) []wal.Op {
	src := write.Ops()
	out := make([]wal.Op, 0, len(src))
	shift := int64(0)
	for _, op := range src {
		pos := op.SID + shift
		switch op.Kind {
		case pdt.OpIns:
			out = append(out, wal.Op{Kind: wal.OpInsert, Pos: pos, Row: op.Row})
			shift++
		case pdt.OpDel:
			out = append(out, wal.Op{Kind: wal.OpDelete, Pos: pos})
			shift--
		case pdt.OpMod:
			cols, vals := sortedMods(op.Mods)
			out = append(out, wal.Op{Kind: wal.OpModify, Pos: pos, ModCols: cols, ModVals: vals})
		}
	}
	return out
}

// anchoredOps re-anchors every write op at its stable SID, validating that
// each will apply cleanly to the current read-PDT (the conflict checks the
// old in-place replay did at application time, hoisted ahead of logging).
// Write-PDT op SIDs are snapshot-image positions already net of the txn's
// own inserts and deletes, so they resolve through the frozen snapRead
// directly — no running shift (unlike positional replay, which mutates its
// destination as it goes). Called only when no op touches non-stable rows.
func (t *Txn) anchoredOps() ([]wal.Op, error) {
	src := t.write.Ops()
	out := make([]wal.Op, 0, len(src))
	for _, op := range src {
		switch op.Kind {
		case pdt.OpIns:
			sid, _ := t.snapRead.Resolve(op.SID)
			out = append(out, wal.Op{Kind: wal.OpInsert, Anchored: true, Pos: sid, Row: op.Row})
		case pdt.OpDel:
			sid, inserted := t.snapRead.Resolve(op.SID)
			if inserted {
				return nil, ErrConflict // guarded by nonStable, defensive
			}
			if t.store.read.StableDeleted(sid) {
				return nil, fmt.Errorf("%w (stable row %d already deleted)", ErrConflict, sid)
			}
			out = append(out, wal.Op{Kind: wal.OpDelete, Anchored: true, Pos: sid})
		case pdt.OpMod:
			sid, inserted := t.snapRead.Resolve(op.SID)
			if inserted {
				return nil, ErrConflict
			}
			if t.store.read.StableDeleted(sid) {
				return nil, fmt.Errorf("%w (stable row %d is deleted)", ErrConflict, sid)
			}
			cols, vals := sortedMods(op.Mods)
			out = append(out, wal.Op{Kind: wal.OpModify, Anchored: true, Pos: sid, ModCols: cols, ModVals: vals})
		}
	}
	return out, nil
}

// sortedMods flattens a mod map into parallel slices ordered by column, so
// the WAL encoding of a commit is deterministic.
func sortedMods(mods map[int]types.Value) ([]int, []types.Value) {
	cols := make([]int, 0, len(mods))
	for c := range mods {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	vals := make([]types.Value, len(cols))
	for i, c := range cols {
		vals[i] = mods[c]
	}
	return cols, vals
}

// applyOps replays a commit's logical ops onto a read-PDT — the single
// application path shared by live commits and crash recovery, so a
// replayed log reproduces the exact tree a crash destroyed. Positional ops
// go through the image-position APIs, anchored ops through the SID APIs.
func applyOps(dst *pdt.PDT, ops []wal.Op) error {
	for i := range ops {
		op := &ops[i]
		if op.Anchored {
			switch op.Kind {
			case wal.OpInsert:
				dst.InsertAtSID(op.Pos, op.Row)
			case wal.OpDelete:
				if err := dst.DeleteAtSID(op.Pos); err != nil {
					return fmt.Errorf("%w (%v)", ErrConflict, err)
				}
			case wal.OpModify:
				for j, c := range op.ModCols {
					if err := dst.ModifyAtSID(op.Pos, c, op.ModVals[j]); err != nil {
						return fmt.Errorf("%w (%v)", ErrConflict, err)
					}
				}
			}
			continue
		}
		switch op.Kind {
		case wal.OpInsert:
			if err := dst.InsertAt(op.Pos, op.Row); err != nil {
				return err
			}
		case wal.OpDelete:
			if err := dst.DeleteAt(op.Pos); err != nil {
				return err
			}
		case wal.OpModify:
			for j, c := range op.ModCols {
				if err := dst.ModifyAt(op.Pos, c, op.ModVals[j]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Checkpoint merges the committed read-PDT into a fresh stable table (the
// paper's background update propagation). Active transactions keep reading
// their snapshots; they fail with ErrSnapshotTooOld if they later try to
// commit writes.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	if s.read.Len() == 0 {
		s.mu.Unlock()
		return nil
	}
	// Read the published version like a snapshot does: counted as a reader,
	// it stays unchanged while commits arriving during the rebuild publish
	// changed clones.
	stable, read, seqAtStart := s.stable, s.read, s.seq
	s.readers++
	s.mu.Unlock()

	fresh, err := rebuild(stable, read)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.release(read)
	if err != nil {
		return err
	}
	// Commits that landed while we rebuilt would be lost; retry covers the
	// race. (Vectorwise overlaps these; we keep the simple retry variant.)
	if s.seq != seqAtStart {
		s.mu.Unlock()
		err := s.Checkpoint()
		s.mu.Lock()
		return err
	}
	// Make the fresh stable durable (file + manifest) before it becomes
	// visible: a crash after persist but before the swap recovers the old
	// generation plus the full WAL tail, a crash after it recovers the new
	// generation and skips the records it absorbed — both exact images.
	if s.persist != nil {
		if err := s.persist(fresh, s.lastWalSeq); err != nil {
			return fmt.Errorf("txn: persisting checkpoint: %w", err)
		}
	}
	s.stable = fresh
	s.read, s.readers = pdt.New(), 0
	s.epoch++
	s.commits = nil
	mCheckpoints.Inc()
	return nil
}

// rebuild writes the image of stable merged with read into a new table.
func rebuild(stable *colstore.Table, read *pdt.PDT) (*colstore.Table, error) {
	full := make([]int, stable.Schema().Len())
	for i := range full {
		full[i] = i
	}
	sc, err := stable.NewScanner(full, vec.DefaultSize)
	if err != nil {
		return nil, err
	}
	merged := pdt.NewMerger(sc, read, full)
	fresh := colstore.NewTable(stable.Schema())
	ap := fresh.NewAppender()
	b := vec.NewBatch(merged.Kinds(), 0)
	for {
		_, _, done, err := merged.Next(b)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		if err := ap.AppendBatch(b); err != nil {
			return nil, err
		}
	}
	if err := ap.Close(); err != nil {
		return nil, err
	}
	return fresh, nil
}
