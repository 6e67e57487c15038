package bufmgr

import (
	"context"
	"sync"
	"testing"
	"time"
)

// A context-cancelled CoopScan must detach itself: a lingering attachment
// would keep inflating chunk relevance and pinning residents forever. Run
// cancelled victims interleaved with healthy siblings (under -race in CI)
// and require that everyone unwinds and the scan set drains to zero.
func TestCoopCancelDetachesAndReleasesSiblings(t *testing.T) {
	src := &delaySource{delay: 2 * time.Millisecond, chunks: 32}
	a := NewABM(src, 4)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// Healthy siblings scan to completion on a live context.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := a.Attach()
			for {
				_, _, ok, err := s.Next(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					return
				}
			}
		}()
	}
	// Victims get cancelled mid-flight.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := a.Attach()
			for {
				_, _, ok, err := s.Next(ctx)
				if err != nil || !ok {
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	cancel()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scans did not unwind after cancellation (waiter stuck?)")
	}

	a.mu.Lock()
	attached := len(a.scans)
	a.mu.Unlock()
	if attached != 0 {
		t.Fatalf("%d scans still attached after completion/cancellation", attached)
	}
}

// Detach after a cancelled Next (the engine path always defers Detach) must
// be a harmless no-op, and a scan abandoned by a read error must likewise
// leave the ABM.
func TestCoopDetachIdempotentAfterError(t *testing.T) {
	src := &delaySource{delay: time.Hour, chunks: 4} // reads never complete
	a := NewABM(src, 4)
	s := a.Attach()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, _, err := s.Next(ctx); err == nil {
		t.Fatal("expected cancellation error")
	}
	s.Detach()
	s.Detach()
	a.mu.Lock()
	attached := len(a.scans)
	a.mu.Unlock()
	if attached != 0 {
		t.Fatalf("%d scans still attached", attached)
	}
}

// Two in-phase scans: every physical load is wanted by both at load time, so
// SharedLoads must count them.
func TestCoopSharedLoadsCounted(t *testing.T) {
	src := fastSource(6)
	a := NewABM(src, 6)
	s1, s2 := a.Attach(), a.Attach()
	ctx := context.Background()
	for {
		_, _, ok1, err := s1.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		_, _, ok2, err := s2.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok1 && !ok2 {
			break
		}
	}
	st := a.Stats()
	if st.SharedLoads == 0 {
		t.Fatalf("no shared loads counted: %+v", st)
	}
	if st.SharedLoads > st.Loads {
		t.Fatalf("shared loads %d exceed total loads %d", st.SharedLoads, st.Loads)
	}
}
