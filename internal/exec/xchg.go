package exec

import (
	"sync"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// The Xchg (exchange) operators implement Volcano-style parallelism: plan
// fragments run in their own goroutines and meet at exchange boundaries.
// The paper's "Multi-core" bullet (claim C9) notes Vectorwise built its
// parallelizer *in the rewriter* by inserting exactly these operators;
// internal/rewriter does the same, and bench/ reports the scaling as
// exec.xchg_speedup_p2.

// XchgUnion runs each child in its own goroutine and merges their batches
// into one stream (no ordering guarantees).
type XchgUnion struct {
	Children []Operator

	ctx     *Ctx
	ch      chan *vec.Batch
	errCh   chan error
	wg      sync.WaitGroup
	stop    chan struct{}
	stopped sync.Once
	opened  bool
}

// NewXchgUnion builds an exchange union.
func NewXchgUnion(children ...Operator) *XchgUnion {
	return &XchgUnion{Children: children}
}

// Kinds implements Operator.
func (x *XchgUnion) Kinds() []types.Kind { return x.Children[0].Kinds() }

// Open implements Operator: starts one producer goroutine per child.
func (x *XchgUnion) Open(ctx *Ctx) error {
	x.ctx = ctx
	x.ch = make(chan *vec.Batch, len(x.Children)*2)
	x.errCh = make(chan error, len(x.Children))
	x.stop = make(chan struct{})
	x.opened = true
	for _, c := range x.Children {
		x.wg.Add(1)
		go x.produce(c)
	}
	go func() {
		x.wg.Wait()
		close(x.ch)
	}()
	return nil
}

func (x *XchgUnion) produce(child Operator) {
	defer x.wg.Done()
	if err := child.Open(x.ctx); err != nil {
		child.Close()
		x.fail(err)
		return
	}
	defer child.Close()
	for {
		// A stopped exchange (early consumer Close, e.g. under LIMIT) must
		// not keep pulling from the child pipeline.
		select {
		case <-x.stop:
			return
		default:
		}
		b, err := child.Next()
		if err != nil {
			x.fail(err)
			return
		}
		if b == nil {
			return
		}
		// Producers reuse their batches, so ship a compacted copy across
		// the thread boundary (the standard exchange copy).
		out := b.Clone()
		select {
		case x.ch <- out:
		case <-x.stop:
			return
		}
	}
}

func (x *XchgUnion) fail(err error) {
	select {
	case x.errCh <- err:
	default:
	}
	x.stopped.Do(func() { close(x.stop) })
}

// Next implements Operator.
func (x *XchgUnion) Next() (*vec.Batch, error) {
	for {
		select {
		case err := <-x.errCh:
			x.stopped.Do(func() { close(x.stop) })
			return nil, err
		case b, ok := <-x.ch:
			if !ok {
				// Producers done; surface any late error.
				select {
				case err := <-x.errCh:
					return nil, err
				default:
					return nil, nil
				}
			}
			return b, nil
		case <-x.ctx.Ctx.Done():
			x.stopped.Do(func() { close(x.stop) })
			return nil, x.ctx.poll()
		}
	}
}

// Close implements Operator: tears down producers and drains the channel so
// they can exit, then waits for them — after Close returns, no producer
// goroutine survives, even when the consumer quit early (LIMIT).
func (x *XchgUnion) Close() {
	if !x.opened {
		for _, c := range x.Children {
			c.Close()
		}
		return
	}
	x.stopped.Do(func() { close(x.stop) })
	for range x.ch {
		// drain until producers close it
	}
	x.wg.Wait()
	x.opened = false
}
