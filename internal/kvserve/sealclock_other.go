//go:build !linux

package kvserve

import "time"

// sealClock outside Linux is a runtime timer behind the Linux clock's
// methods: the same cap-1 channel, fed by the timer's callback, and the
// same caveat that a token on it may be stale.
type sealClock struct {
	C chan struct{} // cap 1: an expiry not yet taken
	t *time.Timer
}

func newSealClock() (*sealClock, error) {
	c := &sealClock{C: make(chan struct{}, 1)}
	c.t = time.AfterFunc(time.Hour, func() {
		select {
		case c.C <- struct{}{}:
		default:
		}
	})
	c.t.Stop()
	return c, nil
}

func (c *sealClock) arm(d time.Duration) { c.t.Reset(d) }

func (c *sealClock) close() { c.t.Stop() }
