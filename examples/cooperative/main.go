// Cooperative scans: N out-of-phase queries share one slow chunk source.
// Classic LRU scans each re-read the table; the Active Buffer Manager
// serves them all with roughly one physical pass (paper claim C3,
// Cooperative Scans VLDB'07).
package main

import (
	"context"
	"flag"
	"fmt"
	"sync"
	"time"

	"vectorwise/internal/bufmgr"
)

// source stands in for a disk: every chunk read takes delay, or lasts until
// ctx is done.
type source struct {
	delay  time.Duration
	chunks int
}

func (s *source) NumChunks() int { return s.chunks }
func (s *source) ReadChunk(ctx context.Context, id int) ([]byte, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return []byte{byte(id)}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func main() {
	chunks := flag.Int("chunks", 64, "table size in chunks")
	pool := flag.Int("pool", 16, "buffer pool capacity in chunks")
	scans := flag.Int("scans", 6, "concurrent scans")
	flag.Parse()

	fmt.Printf("table=%d chunks, pool=%d, %d out-of-phase scans\n\n", *chunks, *pool, *scans)
	for _, policy := range []string{"classic LRU", "cooperative ABM"} {
		src := &source{delay: 200 * time.Microsecond, chunks: *chunks}
		loads, elapsed := run(policy == "cooperative ABM", src, *pool, *scans)
		fmt.Printf("%-16s physical loads=%-4d (%.1fx table)  wall %v\n",
			policy, loads, float64(loads)/float64(*chunks), elapsed.Round(time.Millisecond))
	}
}

// run starts scans out of phase: each begins after its predecessor consumed
// more chunks than the pool holds (the LRU worst case).
func run(coop bool, src bufmgr.Source, pool, nScans int) (int64, time.Duration) {
	ctx := context.Background()
	offset := pool + 4
	progress := make([]chan struct{}, nScans)
	for i := range progress {
		progress[i] = make(chan struct{})
	}
	var loads func() int64
	var mkStep func() func() bool
	if coop {
		a := bufmgr.NewABM(src, pool)
		loads = func() int64 { return a.Stats().Loads }
		mkStep = func() func() bool {
			s := a.Attach()
			return func() bool { _, _, ok, err := s.Next(ctx); return err == nil && ok }
		}
	} else {
		p := bufmgr.NewLRUPool(src, pool)
		loads = func() int64 { return p.Stats().Loads }
		mkStep = func() func() bool {
			s := bufmgr.NewNormalScan(p)
			return func() bool { _, _, ok, err := s.Next(ctx); return err == nil && ok }
		}
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < nScans; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i > 0 {
				<-progress[i-1]
			}
			step := mkStep()
			consumed, released := 0, false
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
	return loads(), time.Since(t0)
}
