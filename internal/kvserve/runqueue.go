package kvserve

import "sync"

// runQueue is the put path's one handoff primitive: producers append a
// whole run of items under one lock, and the single consumer swaps
// everything queued for its previous, drained slice — a hop costs a lock
// and a wake-up per run, not per item, and the two slices ping-pong, so
// the steady state allocates nothing. Its instances: a shard's mailbox
// and replication completion queue, and a connection's ack queue. wake
// and space are cap-1 pokes, not counters: a token means "look again".
type runQueue[T any] struct {
	mu     sync.Mutex
	q      []T
	limit  int // most items queued at once
	closed bool
	wake   chan struct{} // poked by push (items queued) and close
	space  chan struct{} // poked by take (room under the limit again)
}

// newRunQueue returns a queue of the given limit with room for prealloc
// items; a consumer that wants no allocation at all pre-sizes its first
// spare as well.
func newRunQueue[T any](limit, prealloc int) *runQueue[T] {
	return &runQueue[T]{q: make([]T, 0, prealloc), limit: limit, wake: make(chan struct{}, 1), space: make(chan struct{}, 1)}
}

func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// push appends the prefix of run that fits under the limit and reports
// its length and the depth afterwards; it never blocks. A producer that
// may not drop the rest waits on space and pushes the remainder: a push
// that left one found the queue non-empty, so a take is still to come.
func (q *runQueue[T]) push(run []T) (accepted, depth int) {
	q.mu.Lock()
	accepted = min(len(run), q.limit-len(q.q))
	q.q = append(q.q, run[:accepted]...)
	depth = len(q.q)
	q.mu.Unlock()
	if accepted > 0 {
		poke(q.wake)
	}
	return accepted, depth
}

// take returns everything queued, in push order, leaving spare (the
// consumer's previous run, cleared, so the queue holds no stale
// pointers) as the next backing array; nil when nothing is queued, and
// with closed set nothing ever will be.
func (q *runQueue[T]) take(spare []T) (run []T, closed bool) {
	q.mu.Lock()
	if len(q.q) > 0 {
		run, q.q = q.q, spare[:0]
	}
	closed = q.closed
	q.mu.Unlock()
	if run != nil {
		poke(q.space)
	}
	return run, closed
}

// takeWait is take for a consumer with nothing else to wait on: it
// blocks for a run and reports false once the queue is closed and empty.
func (q *runQueue[T]) takeWait(spare []T) ([]T, bool) {
	for {
		run, closed := q.take(spare)
		if run != nil || closed {
			return run, run != nil
		}
		<-q.wake
	}
}

// depth reports how many items are queued.
func (q *runQueue[T]) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q)
}

// close ends the input (no push may follow) and wakes the consumer to
// drain and exit.
func (q *runQueue[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	poke(q.wake)
}
