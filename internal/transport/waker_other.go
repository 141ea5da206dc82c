//go:build !linux

package transport

import "time"

// waker holds the runner's two deadline sources. Without a timerfd both
// are reusable time.Timers, which can fire a near deadline up to a
// millisecond late while the process is idle; see waker_linux.go.
type waker struct {
	near, far *time.Timer
}

func newWaker(fireNear, fireFar func()) (*waker, error) {
	w := &waker{near: time.AfterFunc(time.Hour, fireNear), far: time.AfterFunc(time.Hour, fireFar)}
	w.near.Stop()
	w.far.Stop()
	return w, nil
}

// arm makes the near or the far source fire once, d from now, replacing
// its earlier setting.
func (w *waker) arm(near bool, d time.Duration) error {
	if near {
		w.near.Reset(d)
	} else {
		w.far.Reset(d)
	}
	return nil
}

func (w *waker) close() {
	w.near.Stop()
	w.far.Stop()
}
