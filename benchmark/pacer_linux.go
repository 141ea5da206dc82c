package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer puts a generator to sleep until its next request is due.
//
// time.Sleep keeps the schedule but not its precision: while every other
// goroutine is idle the runtime parks in epoll_wait, whose timeout has
// millisecond resolution, so the generator would run up to a millisecond
// late exactly when the cluster is lightly loaded. A blocking nanosleep is
// precise but holds the generator's P in a system call until sysmon takes
// it back, which on two processors stalls the cluster under test. A
// timerfd read through the runtime's poller is both: the kernel wakes
// epoll_wait the moment the timer fires, and only the goroutine blocks.
type pacer struct {
	f  *os.File
	fd uintptr
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

// newPacer returns a pacer on a timerfd, or one that falls back to
// time.Sleep when the kernel refuses.
func newPacer() *pacer {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &pacer{}
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}
}

func (p *pacer) sleep(d time.Duration) {
	if p.f == nil {
		time.Sleep(d)
		return
	}
	// struct itimerspec{it_interval, it_value}; a zero interval is one shot.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		time.Sleep(d)
	}
}

func (p *pacer) close() {
	if p.f != nil {
		p.f.Close()
	}
}
