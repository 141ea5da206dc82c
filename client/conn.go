package client

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"canopus/internal/clientio"
	"canopus/internal/wire"
)

// sockets is the client machine's socket driver: TCP connections to the
// configured endpoints, wall-clock timers, and randomness seeded from the
// wall clock.
type sockets struct {
	cfg Config
	rng *rand.Rand
}

func (s *sockets) Rand() *rand.Rand                { return s.rng }
func (s *sockets) After(d time.Duration, f func()) { time.AfterFunc(d, f) }
func (s *sockets) Dial(i int, c clientio.Conn)     { go s.run(s.cfg.Endpoints[i], c) }

// run dials addr, sends the v3 preamble, and then reads response frames
// into c until the connection ends; a writer goroutine flushes what the
// machine writes.
func (s *sockets) run(addr string, c clientio.Conn) {
	nc, err := net.DialTimeout("tcp", addr, s.cfg.DialTimeout)
	if err != nil {
		c.Down(fmt.Errorf("canopus/client: dial %s: %w", addr, err))
		return
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if _, err := nc.Write(wire.ClientMagicV3[:]); err != nil {
		nc.Close()
		c.Down(fmt.Errorf("canopus/client: preamble %s: %w", addr, err))
		return
	}
	sk := &sock{nc: nc, wake: make(chan struct{}, 1)}
	c.Up(sk)
	go sk.writeLoop()
	err = wire.ReadClientFrames(nc, c.Frame, nil)
	sk.Close()
	c.Down(err)
}

// sock is one TCP connection's driver side: writes from concurrent
// goroutines are coalesced into single syscalls by its writer goroutine.
// Close closes the socket at once, so its reader ends and a writer
// blocked on a server that does not read gives up.
type sock struct {
	nc     net.Conn
	mu     sync.Mutex
	out    []byte
	closed bool
	wake   chan struct{}
}

func (s *sock) Write(b []byte) {
	s.mu.Lock()
	if s.out == nil {
		s.out = wire.EncodePool.Get(64 + len(b))
	}
	s.out = append(s.out, b...)
	s.mu.Unlock()
	s.ring()
}

func (s *sock) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.nc.Close()
	s.ring()
}

func (s *sock) ring() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *sock) writeLoop() {
	defer s.nc.Close() // a failed write ends the reader too, whose Down carries it
	for range s.wake {
		for {
			s.mu.Lock()
			buf, closed := s.out, s.closed
			s.out = nil
			s.mu.Unlock()
			if len(buf) == 0 {
				if closed {
					return
				}
				break
			}
			s.nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
			_, err := s.nc.Write(buf)
			wire.EncodePool.Put(buf)
			if err != nil {
				return
			}
		}
	}
}
