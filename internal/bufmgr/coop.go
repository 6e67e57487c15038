package bufmgr

import (
	"context"
	"sync"
)

// ABM is the Active Buffer Manager implementing Cooperative Scans. Scans
// attach with the set of chunks they need and call Next() until done; the
// ABM hands each scan *whatever relevant chunk is resident*, and when
// nothing resident is relevant it loads the chunk with the highest global
// relevance:
//
//	relevance(c) = (number of attached scans still needing c,
//	                urgency of the neediest: scans closer to completion win,
//	                lower chunk id)
//
// Eviction removes the resident chunk needed by the fewest scans. The net
// effect the paper describes: one physical read of a hot chunk satisfies
// every concurrent query, so total I/O grows with the table, not with the
// number of queries.
type ABM struct {
	mu    sync.Mutex
	cond  *sync.Cond
	src   Source
	cap   int
	cache map[int][]byte
	scans map[*CoopScan]struct{}
	// loading marks a chunk currently being read so other consumers wait
	// instead of issuing a duplicate read.
	loading map[int]bool
	stats   Stats
}

// NewABM builds a cooperative buffer manager with the given chunk capacity.
func NewABM(src Source, capacity int) *ABM {
	if capacity < 1 {
		panic("bufmgr: ABM capacity must be positive")
	}
	a := &ABM{
		src:     src,
		cap:     capacity,
		cache:   make(map[int][]byte),
		scans:   make(map[*CoopScan]struct{}),
		loading: make(map[int]bool),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// CoopScan is one attached scan.
type CoopScan struct {
	abm    *ABM
	needed map[int]bool
	left   int
}

// Attach registers a scan over all chunks of the source.
func (a *ABM) Attach() *CoopScan {
	return a.AttachRange(0, a.src.NumChunks())
}

// AttachRange registers a scan over chunks [lo, hi).
func (a *ABM) AttachRange(lo, hi int) *CoopScan {
	s := &CoopScan{abm: a, needed: make(map[int]bool, hi-lo), left: hi - lo}
	for c := lo; c < hi; c++ {
		s.needed[c] = true
	}
	a.mu.Lock()
	a.scans[s] = struct{}{}
	a.mu.Unlock()
	mCoopAttach.Inc()
	mCoopActive.Add(1)
	return s
}

// Detach removes the scan (also called implicitly when it finishes or when
// Next fails). Idempotent; always wakes waiters so nobody blocks on the
// departed scan's interest set.
func (s *CoopScan) Detach() {
	a := s.abm
	a.mu.Lock()
	a.detachLocked(s)
	a.mu.Unlock()
}

func (a *ABM) detachLocked(s *CoopScan) {
	if _, attached := a.scans[s]; attached {
		delete(a.scans, s)
		mCoopActive.Add(-1)
	}
	a.cond.Broadcast()
}

// Next delivers any not-yet-consumed chunk to the scan — in whatever order
// benefits the system — or ok=false when the scan has consumed everything.
func (s *CoopScan) Next(ctx context.Context) (id int, data []byte, ok bool, err error) {
	a := s.abm
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			// A cancelled scan must leave the ABM: a lingering attachment
			// would keep inflating chunk relevance and pinning residents
			// against eviction for the rest of the manager's life.
			a.detachLocked(s)
			return 0, nil, false, err
		}
		if s.left == 0 {
			a.detachLocked(s)
			return 0, nil, false, nil
		}
		// 1. Deliver a resident relevant chunk.
		for c := range s.needed {
			if d, resident := a.cache[c]; resident {
				s.consumeLocked(c)
				a.stats.Hits++
				mCoopHits.Inc()
				return c, d, true, nil
			}
		}
		// 2. Nothing resident is relevant: load the globally best chunk
		// among this scan's needs, unless someone is already loading one we
		// need (then wait for it).
		waitFor := -1
		for c := range s.needed {
			if a.loading[c] {
				waitFor = c
				break
			}
		}
		if waitFor >= 0 {
			a.waitCancellable(ctx)
			continue
		}
		c := a.pickLoadLocked(s)
		a.loading[c] = true
		a.mu.Unlock()
		d, err := a.src.ReadChunk(ctx, c)
		a.mu.Lock()
		delete(a.loading, c)
		if err != nil {
			a.detachLocked(s)
			return 0, nil, false, err
		}
		a.stats.Loads++
		mCoopLoads.Inc()
		if a.wantersLocked(c) >= 2 {
			a.stats.SharedLoads++
			mCoopSharedLoads.Inc()
		}
		a.insertLocked(c, d)
		a.cond.Broadcast()
		// Loop back: the loaded chunk is now resident and relevant.
	}
}

// waitCancellable blocks on the condvar but wakes up on ctx cancellation.
func (a *ABM) waitCancellable(ctx context.Context) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			// Take the mutex before broadcasting: the caller holds it until
			// cond.Wait actually parks, so locking here guarantees the
			// broadcast cannot fire in the window before the wait begins (a
			// missed wakeup that would strand a cancelled scan forever).
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		case <-done:
		}
	}()
	a.cond.Wait()
	close(done)
}

// wantersLocked counts the attached scans that still need chunk c.
func (a *ABM) wantersLocked(c int) int {
	want := 0
	for sc := range a.scans {
		if sc.needed[c] {
			want++
		}
	}
	return want
}

// pickLoadLocked chooses the next chunk to read on behalf of scan s: the
// chunk (from s's needs) wanted by the most scans; ties go to the chunk
// whose neediest wanter has the fewest chunks left (finish queries early),
// then to the lowest id (sequential-friendly).
func (a *ABM) pickLoadLocked(s *CoopScan) int {
	best := -1
	bestWant, bestUrgency := -1, 1<<62
	for c := range s.needed {
		if a.cache[c] != nil || a.loading[c] {
			continue
		}
		want := 0
		urgency := 1 << 62
		for sc := range a.scans {
			if sc.needed[c] {
				want++
				if sc.left < urgency {
					urgency = sc.left
				}
			}
		}
		if want > bestWant || (want == bestWant && urgency < bestUrgency) ||
			(want == bestWant && urgency == bestUrgency && c < best) {
			best, bestWant, bestUrgency = c, want, urgency
		}
	}
	if best < 0 {
		// All of s's needs are resident or loading; pick any needed chunk
		// (the caller loops and will find it in cache).
		for c := range s.needed {
			return c
		}
	}
	return best
}

// insertLocked adds a chunk, evicting the least-relevant resident chunk if
// the pool is full: fewest scans needing it wins eviction.
func (a *ABM) insertLocked(id int, data []byte) {
	for len(a.cache) >= a.cap {
		victim, victimWant := -1, 1<<62
		for c := range a.cache {
			if c == id {
				continue
			}
			want := 0
			for sc := range a.scans {
				if sc.needed[c] {
					want++
				}
			}
			if want < victimWant {
				victim, victimWant = c, want
			}
			if want == 0 {
				break
			}
		}
		if victim < 0 {
			break
		}
		delete(a.cache, victim)
		mCoopEvict.Inc()
	}
	a.cache[id] = data
}

func (s *CoopScan) consumeLocked(c int) {
	delete(s.needed, c)
	s.left--
}

// Stats returns a snapshot of ABM counters.
func (a *ABM) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}
