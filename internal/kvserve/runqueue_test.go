package kvserve

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestRunQueue pins what the put path relies on from its one handoff
// primitive; run it under -race.
func TestRunQueue(t *testing.T) {
	t.Run("push over the limit accepts the prefix that fits", func(t *testing.T) {
		q := newRunQueue[int](4, 0)
		if acc, depth := q.push([]int{1, 2, 3}); acc != 3 || depth != 3 {
			t.Fatalf("push of 3 into an empty queue of 4 = %d, depth %d", acc, depth)
		}
		if acc, depth := q.push([]int{4, 5, 6}); acc != 1 || depth != 4 {
			t.Fatalf("push of 3 with room for 1 = %d, depth %d; want 1, 4", acc, depth)
		}
		if acc, depth := q.push([]int{7}); acc != 0 || depth != 4 {
			t.Fatalf("push into a full queue = %d, depth %d; want 0, 4", acc, depth)
		}
		if run, closed := q.take(nil); !slices.Equal(run, []int{1, 2, 3, 4}) || closed {
			t.Fatalf("take = %v, closed %v; want [1 2 3 4], false", run, closed)
		}
		if run, _ := q.take(nil); run != nil || q.depth() != 0 {
			t.Fatalf("take of an empty queue = %v, depth %d", run, q.depth())
		}
	})

	t.Run("the two slices ping-pong", func(t *testing.T) {
		q := newRunQueue[int](8, 0)
		q.push([]int{1})
		first, _ := q.take(nil)
		q.push([]int{2})
		second, _ := q.take(first) // first is now the queue's backing array
		q.push([]int{3})
		third, _ := q.take(second)
		if &third[0] != &first[0] {
			t.Fatal("the push after take(spare) did not reuse the spare's backing array")
		}
		if third[0] != 3 || second[0] != 2 {
			t.Fatalf("runs out of order: %v then %v", second, third)
		}
	})

	t.Run("close wakes a waiting taker", func(t *testing.T) {
		q := newRunQueue[int](8, 0)
		got := make(chan bool)
		go func() {
			_, ok := q.takeWait(nil)
			got <- ok
		}()
		q.close()
		select {
		case ok := <-got:
			if ok {
				t.Fatal("takeWait on a closed, empty queue reported a run")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("close did not wake the taker")
		}
	})

	t.Run("close drains first", func(t *testing.T) {
		q := newRunQueue[int](8, 0)
		q.push([]int{1, 2})
		q.close()
		if run, ok := q.takeWait(nil); !ok || len(run) != 2 {
			t.Fatalf("takeWait after close = %v, %v; want the queued run", run, ok)
		}
		if _, ok := q.takeWait(nil); ok {
			t.Fatal("second takeWait after close reported a run")
		}
	})

	t.Run("take releases pushers waiting on space", func(t *testing.T) {
		const pushers, each = 3, 200
		q := newRunQueue[int](4, 0)
		var wg sync.WaitGroup
		for p := 0; p < pushers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				run := make([]int, each)
				for i := range run {
					run[i] = p*each + i
				}
				for len(run) > 0 {
					acc, _ := q.push(run)
					if run = run[acc:]; len(run) > 0 {
						<-q.space
					}
				}
			}(p)
		}
		go func() {
			wg.Wait()
			q.close()
		}()
		next := [pushers]int{}
		var spare []int
		for n := 0; ; {
			run, ok := q.takeWait(spare)
			if !ok {
				if n != pushers*each {
					t.Fatalf("took %d items, want %d", n, pushers*each)
				}
				return
			}
			for _, v := range run { // every pusher's items arrive in its push order
				if p := v / each; v%each != next[p] {
					t.Fatalf("pusher %d: got item %d, want %d", p, v%each, next[p])
				} else {
					next[p]++
				}
			}
			n += len(run)
			spare = run
		}
	})
}

// BenchmarkPutHandoff names the layer ISSUE 16 changed: ns per request
// handed from two producers to one consumer, through a runQueue at run
// lengths 1, 8 and 64 and — the handoff it replaced — through a channel
// of the mailbox's default capacity, one send and one receive per request.
func BenchmarkPutHandoff(b *testing.B) {
	const producers, mailbox = 2, 256
	produce := func(b *testing.B, send func(n int)) {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				send(b.N / producers)
			}()
		}
		wg.Wait()
	}
	b.Run("chan", func(b *testing.B) {
		ch := make(chan request, mailbox)
		done := make(chan struct{})
		go func() {
			for range ch {
			}
			close(done)
		}()
		produce(b, func(n int) {
			for i := 0; i < n; i++ {
				ch <- request{seq: uint32(i)}
			}
		})
		close(ch)
		<-done
	})
	for _, runLen := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("runQueue/run=%d", runLen), func(b *testing.B) {
			q := newRunQueue[request](mailbox, mailbox)
			done := make(chan struct{})
			go func() {
				var spare []request
				for ok := true; ok; {
					spare, ok = q.takeWait(spare)
				}
				close(done)
			}()
			produce(b, func(n int) {
				stage := make([]request, runLen)
				for n > 0 {
					run := stage[:min(n, runLen)]
					n -= len(run)
					for len(run) > 0 {
						acc, _ := q.push(run)
						if run = run[acc:]; len(run) > 0 {
							<-q.space
						}
					}
				}
			})
			q.close()
			<-done
		})
	}
}
