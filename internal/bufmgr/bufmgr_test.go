package bufmgr

import (
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

// delaySource is a Source whose every read takes delay, or lasts until ctx
// is done, and returns the chunk id as the chunk's content.
type delaySource struct {
	delay  time.Duration
	chunks int
}

func (s *delaySource) NumChunks() int { return s.chunks }

func (s *delaySource) ReadChunk(ctx context.Context, id int) ([]byte, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(id))
	return b, nil
}

func fastSource(chunks int) *delaySource { return &delaySource{chunks: chunks} }

func TestLRUPoolHitsAndEviction(t *testing.T) {
	src := fastSource(10)
	p := NewLRUPool(src, 3)
	ctx := context.Background()
	for _, id := range []int{0, 1, 2} {
		if _, err := p.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Get(ctx, 1); err != nil { // hit
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Loads != 3 || st.Hits != 1 {
		t.Fatalf("stats: %v", st)
	}
	// Insert a 4th chunk: LRU (chunk 0) is evicted.
	if _, err := p.Get(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if p.Contains(0) {
		t.Fatal("chunk 0 should have been evicted")
	}
	if !p.Contains(1) || !p.Contains(2) || !p.Contains(3) {
		t.Fatal("wrong residents")
	}
}

func TestLRUPoolSingleFlight(t *testing.T) {
	src := &delaySource{delay: 5 * time.Millisecond, chunks: 1}
	p := NewLRUPool(src, 2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Get(context.Background(), 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.Loads != 1 {
		t.Fatalf("single-flight broken: %d loads", st.Loads)
	}
}

func TestNormalScanOrder(t *testing.T) {
	p := NewLRUPool(fastSource(5), 2)
	s := NewNormalScan(p)
	ctx := context.Background()
	var got []int
	for {
		id, data, ok, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if binary.LittleEndian.Uint64(data) != uint64(id) {
			t.Fatal("wrong chunk content")
		}
		got = append(got, id)
	}
	if len(got) != 5 {
		t.Fatalf("scanned %v", got)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("order: %v", got)
		}
	}
}

func TestCoopScanDeliversAll(t *testing.T) {
	a := NewABM(fastSource(8), 4)
	s := a.Attach()
	ctx := context.Background()
	seen := map[int]bool{}
	for {
		id, data, ok, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen[id] {
			t.Fatalf("chunk %d delivered twice", id)
		}
		if binary.LittleEndian.Uint64(data) != uint64(id) {
			t.Fatal("wrong content")
		}
		seen[id] = true
	}
	if len(seen) != 8 {
		t.Fatalf("delivered %d/8", len(seen))
	}
}

func TestCoopScanRange(t *testing.T) {
	a := NewABM(fastSource(10), 4)
	s := a.AttachRange(3, 6)
	ctx := context.Background()
	seen := map[int]bool{}
	for {
		id, _, ok, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen[id] = true
	}
	if len(seen) != 3 || !seen[3] || !seen[4] || !seen[5] {
		t.Fatalf("range scan saw %v", seen)
	}
}

// The headline cooperative-scans property: N out-of-phase concurrent scans
// over the same table should need far fewer physical loads under the ABM
// than under LRU attach. Phase offsets are deterministic: scan i starts
// only after scan i-1 has consumed more chunks than the pool holds, the
// known worst case for in-order LRU scans.
func TestCooperativeSharingBeatsLRU(t *testing.T) {
	const chunks, poolCap, nScans = 32, 8, 4
	const offset = poolCap + 4 // chunks consumed before the next scan starts
	ctx := context.Background()
	run := func(coop bool) int64 {
		src := &delaySource{delay: 100 * time.Microsecond, chunks: chunks}
		var wg sync.WaitGroup
		progress := make([]chan struct{}, nScans) // closed when scan i passes offset
		for i := range progress {
			progress[i] = make(chan struct{})
		}
		var loads func() int64
		var next func(i int) func() bool // returns "one step" function per scan
		if coop {
			a := NewABM(src, poolCap)
			loads = func() int64 { return a.Stats().Loads }
			next = func(i int) func() bool {
				s := a.Attach()
				return func() bool {
					_, _, ok, err := s.Next(ctx)
					return err == nil && ok
				}
			}
		} else {
			p := NewLRUPool(src, poolCap)
			loads = func() int64 { return p.Stats().Loads }
			next = func(i int) func() bool {
				s := NewNormalScan(p)
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
				step := next(i)
				consumed := 0
				released := false
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
		return loads()
	}
	lruLoads := run(false)
	coopLoads := run(true)
	t.Logf("LRU loads=%d, cooperative loads=%d (table=%d chunks, %d scans)",
		lruLoads, coopLoads, chunks, nScans)
	if coopLoads >= lruLoads {
		t.Fatalf("cooperative (%d) should beat LRU (%d)", coopLoads, lruLoads)
	}
	// LRU out-of-phase degrades toward nScans full table reads.
	if lruLoads < int64(2*chunks) {
		t.Fatalf("LRU loads %d suspiciously low; phasing broken?", lruLoads)
	}
}

func TestCoopScanCancellation(t *testing.T) {
	src := &delaySource{delay: 50 * time.Millisecond, chunks: 100}
	a := NewABM(src, 4)
	s := a.Attach()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		for {
			_, _, ok, err := s.Next(ctx)
			if err != nil {
				done <- err
				return
			}
			if !ok {
				done <- nil
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected cancellation error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not interrupt the scan")
	}
}

func TestLRUGetCancellation(t *testing.T) {
	src := &delaySource{delay: time.Hour, chunks: 1} // never completes
	p := NewLRUPool(src, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Get(ctx, 0); err == nil {
		t.Fatal("expected timeout")
	}
}
