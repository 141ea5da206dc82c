package transport

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waker holds the runner's two deadline sources: for near deadlines a
// timerfd, read through the runtime's poller by a goroutine that fires
// the timers on every expiry, and for far ones a time.Timer.
//
// A time.Timer keeps the deadline but not its precision: while the process
// is otherwise idle the runtime parks in epoll_wait, whose timeout has
// millisecond resolution, so a deadline 500 µs out fires about 570 µs late
// and one 100 µs out about a millisecond late — and the pace of a node's
// cycles is such a deadline. The kernel wakes epoll_wait the moment a
// timerfd expires, so the same deadlines fire within about 10 µs.
// benchmark/pacer_linux.go paces the load generator the same way.
//
// A deadline armed a millisecond or more ahead — a node's tick, its cycle
// timer — stays on the time.Timer, which fires it less than a millisecond
// late and costs no system call to arm. Firing those on time too made a
// wide-area cluster's cycle rate depend on its boot: the nodes'
// free-running cycle timers then keep the order their boot gave them for
// the whole run, and that order alone decides whether the nodes of a
// super-leaf start one cycle an interval or leapfrog one another into more
// (wan_9n: about 13 or 20–24 heap objects per request from one run to the
// next), where the time.Timer's sub-millisecond lateness reshuffles the
// order every interval.
type waker struct {
	f   *os.File
	fd  uintptr
	far *time.Timer
}

// clockMonotonic is CLOCK_MONOTONIC; TFD_NONBLOCK and TFD_CLOEXEC are
// O_NONBLOCK and O_CLOEXEC.
const clockMonotonic = 1

// newWaker creates the timerfd and starts the goroutine that calls
// fireNear on each of its expiries until close; the time.Timer calls
// fireFar.
func newWaker(fireNear, fireFar func()) (*waker, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("transport: timerfd_create: %w", errno)
	}
	w := &waker{f: os.NewFile(fd, "timerfd"), fd: fd, far: time.AfterFunc(time.Hour, fireFar)}
	w.far.Stop()
	go w.loop(fireNear)
	return w, nil
}

func (w *waker) loop(fire func()) {
	expirations := make([]byte, 8)
	for {
		if _, err := w.f.Read(expirations); err != nil {
			return // closed
		}
		fire()
	}
}

// arm makes the near or the far source fire once, d from now, replacing
// its earlier setting. d must be positive: a zero it_value disarms a
// timerfd.
func (w *waker) arm(near bool, d time.Duration) error {
	if !near {
		w.far.Reset(d)
		return nil
	}
	// struct itimerspec{it_interval, it_value}; a zero interval is one shot.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	return nil
}

// close stops the time.Timer and releases the timerfd, which ends the
// goroutine. The caller must not arm afterwards: the descriptor number may
// already belong to another file.
func (w *waker) close() {
	w.far.Stop()
	w.f.Close()
}
