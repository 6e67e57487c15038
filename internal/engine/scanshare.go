package engine

import (
	"context"
	"sync"

	"vectorwise/internal/bufmgr"
	"vectorwise/internal/colstore"
	"vectorwise/internal/exec"
)

// DefaultBufferGroups is the per-table buffer-manager capacity (in row
// groups) when DB.BufferGroups is unset. At 16K rows per group this holds a
// few million rows of hot scan data.
const DefaultBufferGroups = 256

// tableChunkSource adapts a stable snapshot to bufmgr.Source: one chunk is
// one framed row group.
type tableChunkSource struct {
	t *colstore.Table
}

func (s *tableChunkSource) NumChunks() int { return s.t.NumBlocks() }

func (s *tableChunkSource) ReadChunk(_ context.Context, id int) ([]byte, error) {
	return s.t.EncodeGroup(id)
}

// scanShare is one table's shared buffer-manager state: an LRU pool for
// lone, serial and filtered scans and a cooperative ABM that concurrent
// parallel full scans attach to, both over the same chunk source. It is
// pinned to one stable snapshot; a checkpoint swaps the snapshot and the
// share is rebuilt once idle.
type scanShare struct {
	stable *colstore.Table
	lru    *bufmgr.LRUPool
	abm    *bufmgr.ABM

	mu     sync.Mutex
	active int // scans currently registered on this share
}

// beginScan registers a scan and reports whether it has company — the
// condition for joining the cooperative ABM instead of scanning through the
// LRU pool alone. The returned release is idempotent.
func (sh *scanShare) beginScan() (concurrent bool, release func()) {
	sh.mu.Lock()
	sh.active++
	concurrent = sh.active >= 2
	sh.mu.Unlock()
	var once sync.Once
	return concurrent, func() {
		once.Do(func() {
			sh.mu.Lock()
			sh.active--
			sh.mu.Unlock()
		})
	}
}

// shareFor returns the buffer-manager share for a table's stable snapshot,
// building it on first use. A nil return means "scan the snapshot directly"
// — the snapshot is empty, or a checkpoint replaced it while older scans
// still hold the previous share.
func (db *DB) shareFor(table string, snap *colstore.Table) *scanShare {
	if snap.NumBlocks() == 0 {
		return nil
	}
	db.shareMu.Lock()
	defer db.shareMu.Unlock()
	if sh, ok := db.shares[table]; ok {
		if sh.stable == snap {
			return sh
		}
		sh.mu.Lock()
		busy := sh.active > 0
		sh.mu.Unlock()
		if busy {
			return nil
		}
	}
	capGroups := db.BufferGroups
	if capGroups <= 0 {
		capGroups = DefaultBufferGroups
	}
	src := &tableChunkSource{t: snap}
	sh := &scanShare{
		stable: snap,
		lru:    bufmgr.NewLRUPool(src, capGroups),
		abm:    bufmgr.NewABM(src, capGroups),
	}
	db.shares[table] = sh
	return sh
}

// ShareStats reports a table's buffer-manager counters (benchmarks, tests):
// LRU pool stats and ABM stats side by side.
func (db *DB) ShareStats(table string) (lru, coop bufmgr.Stats, ok bool) {
	db.shareMu.Lock()
	sh := db.shares[table]
	db.shareMu.Unlock()
	if sh == nil {
		return bufmgr.Stats{}, bufmgr.Stats{}, false
	}
	return sh.lru.Stats(), sh.abm.Stats(), true
}

// lruBlockSource feeds a scanner through the shared LRU pool.
type lruBlockSource struct{ pool *bufmgr.LRUPool }

func (s lruBlockSource) FetchGroup(ctx context.Context, g int) ([]byte, error) {
	return s.pool.Get(ctx, g)
}

// coopStream adapts an attached bufmgr.CoopScan to exec.CoopStream. Close
// detaches exactly once (the worker fragments all call it).
type coopStream struct {
	scan *bufmgr.CoopScan
	once sync.Once
}

func (c *coopStream) Next(ctx context.Context) (int, []byte, bool, error) {
	return c.scan.Next(ctx)
}

func (c *coopStream) Close() { c.once.Do(c.scan.Detach) }

// coopMorselSource decorates a stable morsel source with buffer-managed
// reads: workers either share one cooperative stream (concurrent parallel
// full scans) or pull groups through the LRU pool.
type coopMorselSource struct {
	*stableMorselSource
	ctx    context.Context
	stream exec.CoopStream // nil: not cooperating this time
	lru    *bufmgr.LRUPool // nil: read the snapshot directly
}

// Coop implements exec.CoopMorselSource.
func (s *coopMorselSource) Coop() exec.CoopStream { return s.stream }

// Worker hands out scanners wired to the buffer manager: cooperative
// workers get payloads pushed via SeekGroupData (no source needed); queue
// workers fetch through the shared LRU pool.
func (s *coopMorselSource) Worker() (exec.MorselScanner, error) {
	sc, err := s.stableMorselSource.Worker()
	if err != nil {
		return nil, err
	}
	if s.stream == nil && s.lru != nil {
		if cs, isCol := sc.(*colstore.Scanner); isCol {
			cs.SetBlockSource(s.ctx, lruBlockSource{s.lru})
		}
	}
	return sc, nil
}
