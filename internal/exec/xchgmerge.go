package exec

import (
	"sync"

	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// XchgMerge is the order-preserving exchange: each child produces a stream
// already sorted on Keys (a per-worker local sort or top-N), and the
// consumer performs a P-way merge, so the union is globally sorted without
// re-sorting. Ties across children resolve by child index, keeping the
// merge deterministic on duplicate keys.
type XchgMerge struct {
	Children []Operator
	Keys     []SortKey

	ctx     *Ctx
	streams []*mergeStream
	errCh   chan error
	wg      sync.WaitGroup
	stop    chan struct{}
	stopped sync.Once
	opened  bool
	cmp     rowCmp
	out     *vec.Batch
	done    bool
}

type mergeStream struct {
	ch   chan *vec.Batch
	cur  *vec.Batch
	pos  int
	done bool
}

// NewXchgMerge builds an order-preserving exchange over pre-sorted children.
func NewXchgMerge(keys []SortKey, children ...Operator) *XchgMerge {
	return &XchgMerge{Children: children, Keys: keys}
}

// Kinds implements Operator.
func (x *XchgMerge) Kinds() []types.Kind { return x.Children[0].Kinds() }

// Open implements Operator: starts one producer goroutine per child.
func (x *XchgMerge) Open(ctx *Ctx) error {
	x.ctx = ctx
	x.errCh = make(chan error, len(x.Children))
	x.stop = make(chan struct{})
	x.stopped = sync.Once{}
	x.done = false
	x.opened = true
	cmp, err := newRowCmp(x.Kinds(), x.Keys)
	if err != nil {
		return err
	}
	x.cmp = cmp
	x.out = vec.NewBatch(x.Kinds(), ctx.vecSize())
	x.streams = make([]*mergeStream, len(x.Children))
	for i, c := range x.Children {
		s := &mergeStream{ch: make(chan *vec.Batch, 2)}
		x.streams[i] = s
		x.wg.Add(1)
		go x.produce(c, s)
	}
	return nil
}

func (x *XchgMerge) produce(child Operator, s *mergeStream) {
	defer x.wg.Done()
	defer close(s.ch)
	if err := child.Open(x.ctx); err != nil {
		child.Close()
		x.fail(err)
		return
	}
	defer child.Close()
	for {
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
		if b.Rows() == 0 {
			continue
		}
		out := b.Clone()
		select {
		case s.ch <- out:
		case <-x.stop:
			return
		}
	}
}

func (x *XchgMerge) fail(err error) {
	select {
	case x.errCh <- err:
	default:
	}
	x.stopped.Do(func() { close(x.stop) })
}

// advance ensures stream s holds a current batch or is marked done.
func (x *XchgMerge) advance(s *mergeStream) error {
	for !s.done && (s.cur == nil || s.pos >= s.cur.Rows()) {
		select {
		case err := <-x.errCh:
			x.stopped.Do(func() { close(x.stop) })
			return err
		case b, ok := <-s.ch:
			if !ok {
				s.done = true
				s.cur = nil
				// A closed stream may mean a failed producer: surface it.
				select {
				case err := <-x.errCh:
					x.stopped.Do(func() { close(x.stop) })
					return err
				default:
				}
				return nil
			}
			s.cur = b
			s.pos = 0
		case <-x.ctx.Ctx.Done():
			x.stopped.Do(func() { close(x.stop) })
			return x.ctx.poll()
		}
	}
	return nil
}

// Next implements Operator: merges the pre-sorted streams row-at-a-time
// into vector-sized output batches.
func (x *XchgMerge) Next() (*vec.Batch, error) {
	if x.done {
		return nil, nil
	}
	x.out.Reset()
	n := 0
	limit := x.ctx.vecSize()
	for n < limit {
		best := -1
		for i, s := range x.streams {
			if err := x.advance(s); err != nil {
				return nil, err
			}
			if s.done {
				continue
			}
			if best < 0 {
				best = i
			} else if lead := x.streams[best]; x.cmp(s.cur.Vecs, s.cur.RowIndex(s.pos),
				lead.cur.Vecs, lead.cur.RowIndex(lead.pos)) < 0 {
				best = i
			}
		}
		if best < 0 {
			x.done = true
			break
		}
		s := x.streams[best]
		phys := s.cur.RowIndex(s.pos)
		for c := range x.out.Vecs {
			x.out.Vecs[c].AppendRow(s.cur.Vecs[c], phys)
		}
		s.pos++
		n++
	}
	if n == 0 {
		return nil, nil
	}
	x.out.Sel = nil
	x.out.ForceLen(n)
	return x.out, nil
}

// Close implements Operator: stops producers and drains every stream so
// their goroutines can exit even when the consumer quit early.
func (x *XchgMerge) Close() {
	if !x.opened {
		for _, c := range x.Children {
			c.Close()
		}
		return
	}
	x.stopped.Do(func() { close(x.stop) })
	for _, s := range x.streams {
		for range s.ch {
		}
	}
	x.wg.Wait()
	x.opened = false
}
