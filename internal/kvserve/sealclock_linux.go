package kvserve

import (
	"errors"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sealClock is a shard owner's batch-deadline clock: a non-blocking
// timerfd (CLOCK_MONOTONIC) that Go's network poller waits on, and a
// reader goroutine that forwards each expiry to C. The owner selects on C
// beside its mailbox. A time.Timer would do the same on paper, but an
// idle Go process waits for timers in a millisecond-granular epoll_wait:
// a 500 µs BatchWait fired about 1.1 ms after arming, where a timerfd
// read through the same poller fires within tens of µs (EXPERIMENTS.md
// "Batch deadlines on time"). Only the owner arms it; close is called
// once the owner has exited.
type sealClock struct {
	// C carries one token per expiry not yet taken (cap 1). A token says
	// only that the clock expired: the setting it expired for may be an
	// earlier one, so the receiver re-checks its own deadline.
	C    chan struct{}
	fd   int
	f    *os.File
	done chan struct{} // closed when the reader goroutine has exited
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the same on every Linux

func newSealClock() (*sealClock, error) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor is registered with the poller, so the
	// reader's Read parks its goroutine, not a thread. (f.Fd() would set
	// it blocking again: the clock keeps the number itself.)
	c := &sealClock{C: make(chan struct{}, 1), fd: int(fd), f: os.NewFile(fd, "sealclock"), done: make(chan struct{})}
	go c.forward()
	return c, nil
}

// forward turns expiries into tokens on C until the clock is closed. A
// read returns the number of expiries since the last one; any number
// means the same, so it is not decoded. A token already waiting absorbs
// the next. Any error but close would leave a clock that never fires
// again, so it panics, as arm does.
func (c *sealClock) forward() {
	defer close(c.done)
	var n [8]byte
	for {
		if _, err := c.f.Read(n[:]); err != nil {
			if errors.Is(err, os.ErrClosed) {
				return
			}
			panic(err)
		}
		select {
		case c.C <- struct{}{}:
		default:
		}
	}
}

// arm sets the clock to expire once, d from now (at once if d ≤ 0),
// replacing any earlier setting.
func (c *sealClock) arm(d time.Duration) {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(max(d, 1)))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(c.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		// Only a bad descriptor or value can fail, and neither can occur.
		panic(os.NewSyscallError("timerfd_settime", errno))
	}
}

// close releases the descriptor and waits for the reader to exit.
func (c *sealClock) close() {
	c.f.Close()
	<-c.done
}
