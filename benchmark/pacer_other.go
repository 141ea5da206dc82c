//go:build !linux

package main

import "time"

// pacer puts a generator to sleep until its next request is due. Without
// a timerfd it is time.Sleep, which can run a millisecond late; see
// pacer_linux.go.
type pacer struct{}

func newPacer() *pacer { return &pacer{} }

func (p *pacer) sleep(d time.Duration) { time.Sleep(d) }

func (p *pacer) close() {}
