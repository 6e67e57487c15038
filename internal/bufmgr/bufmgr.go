// Package bufmgr is the buffer manager for chunked table storage, with the
// two scan policies the paper contrasts:
//
//   - Normal scans: every scan walks chunks in order through a shared LRU
//     cache. Out-of-phase concurrent scans evict each other's chunks and
//     each effectively re-reads the whole table.
//   - Cooperative Scans (claim C3, VLDB 2007): scans register their chunk
//     interest with an Active Buffer Manager and accept chunks in *any*
//     order. The ABM picks what to load next by relevance (how many scans
//     want a chunk, how close its wanters are to finishing) so one physical
//     read feeds many queries.
//
// TestCooperativeSharingBeatsLRU and examples/cooperative drive both
// policies over the same slow chunk source.
package bufmgr

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"vectorwise/internal/metrics"
)

// Buffer-manager instruments, resolved once; hot paths pay one atomic add.
var (
	mLRUHits      = metrics.Default.Counter("bufmgr_lru_hits_total")
	mLRULoads     = metrics.Default.Counter("bufmgr_lru_loads_total")
	mLRUEvictions = metrics.Default.Counter("bufmgr_lru_evictions_total")
	mCoopAttach   = metrics.Default.Counter("bufmgr_coop_attach_total")
	mCoopHits     = metrics.Default.Counter("bufmgr_coop_shared_hits_total")
	mCoopLoads    = metrics.Default.Counter("bufmgr_coop_loads_total")
	mCoopEvict    = metrics.Default.Counter("bufmgr_coop_evictions_total")
	mCoopActive   = metrics.Default.Gauge("bufmgr_coop_active_scans")
	// coop_shared_loads_total counts physical loads that served two or more
	// attached scans at load time — the reads the cooperative policy turned
	// from per-query into shared I/O.
	mCoopSharedLoads = metrics.Default.Counter("coop_shared_loads_total")
)

// Source supplies chunk data; reads carry the (simulated or real) I/O cost.
type Source interface {
	// NumChunks returns the chunk count of the underlying object.
	NumChunks() int
	// ReadChunk reads one chunk, blocking for its I/O time.
	ReadChunk(ctx context.Context, id int) ([]byte, error)
}

// Stats counts buffer-manager activity.
type Stats struct {
	Loads       int64 // physical chunk reads
	Hits        int64 // chunks served from the pool
	SharedLoads int64 // loads wanted by >= 2 scans at load time (ABM only)
}

// LRUPool is the classic shared buffer pool: capacity slots, least-recently-
// used eviction.
type LRUPool struct {
	mu       sync.Mutex
	src      Source
	capacity int
	items    map[int]*list.Element
	order    *list.List // front = most recent
	stats    Stats
	inflight map[int]chan struct{} // single-flight per chunk
}

type lruEntry struct {
	id   int
	data []byte
}

// NewLRUPool builds a pool of the given capacity (in chunks) over src.
func NewLRUPool(src Source, capacity int) *LRUPool {
	if capacity < 1 {
		panic("bufmgr: pool capacity must be positive")
	}
	return &LRUPool{
		src:      src,
		capacity: capacity,
		items:    make(map[int]*list.Element),
		order:    list.New(),
		inflight: make(map[int]chan struct{}),
	}
}

// Get returns chunk id, loading it on a miss. Concurrent misses on the same
// chunk are collapsed into one physical read (single-flight).
func (p *LRUPool) Get(ctx context.Context, id int) ([]byte, error) {
	for {
		p.mu.Lock()
		if el, ok := p.items[id]; ok {
			p.order.MoveToFront(el)
			data := el.Value.(*lruEntry).data
			p.stats.Hits++
			mLRUHits.Inc()
			p.mu.Unlock()
			return data, nil
		}
		if ch, ok := p.inflight[id]; ok {
			p.mu.Unlock()
			select {
			case <-ch:
				continue // re-check the pool
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		ch := make(chan struct{})
		p.inflight[id] = ch
		p.mu.Unlock()

		data, err := p.src.ReadChunk(ctx, id)

		p.mu.Lock()
		delete(p.inflight, id)
		close(ch)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		p.stats.Loads++
		mLRULoads.Inc()
		p.insertLocked(id, data)
		p.mu.Unlock()
		return data, nil
	}
}

func (p *LRUPool) insertLocked(id int, data []byte) {
	if el, ok := p.items[id]; ok {
		p.order.MoveToFront(el)
		el.Value.(*lruEntry).data = data
		return
	}
	for len(p.items) >= p.capacity {
		back := p.order.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*lruEntry)
		p.order.Remove(back)
		delete(p.items, victim.id)
		mLRUEvictions.Inc()
	}
	p.items[id] = p.order.PushFront(&lruEntry{id: id, data: data})
}

// Stats returns a snapshot of the counters.
func (p *LRUPool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Contains reports whether the chunk is currently resident (tests).
func (p *LRUPool) Contains(id int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.items[id]
	return ok
}

// NormalScan iterates chunks 0..N-1 in order through an LRU pool: the
// traditional scan the paper's Cooperative Scans improve upon.
type NormalScan struct {
	pool *LRUPool
	next int
	n    int
}

// NewNormalScan starts an in-order scan over all chunks of the source.
func NewNormalScan(pool *LRUPool) *NormalScan {
	return &NormalScan{pool: pool, n: pool.src.NumChunks()}
}

// Next returns the next chunk in order, or ok=false at the end.
func (s *NormalScan) Next(ctx context.Context) (id int, data []byte, ok bool, err error) {
	if s.next >= s.n {
		return 0, nil, false, nil
	}
	id = s.next
	s.next++
	data, err = s.pool.Get(ctx, id)
	if err != nil {
		return 0, nil, false, err
	}
	return id, data, true, nil
}

// String renders pool stats for debugging.
func (s Stats) String() string {
	return fmt.Sprintf("loads=%d hits=%d", s.Loads, s.Hits)
}
