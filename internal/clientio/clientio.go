// Package clientio is the seam between canopus/client's state machine and
// whatever carries its frames. The machine owns no socket, clock or
// source of randomness: its driver supplies them through Env.
// canopus/client's own driver dials TCP; internal/harness drives the same
// machine over a simulated link on the simulator's clock, so a seeded
// chaos run exercises the client's sessions, retries and failover and
// still replays bit-identically.
package clientio

import (
	"math/rand"
	"time"
)

// Env is what a client machine runs on. The machine calls it with its lock
// held, so no method may call back into the machine before it returns.
type Env interface {
	Rand() *rand.Rand // the dial backoff's jitter
	// After runs f once d has passed.
	After(d time.Duration, f func())
	// Dial opens a connection to endpoint i and reports to c: Up once it
	// is open, then its response frames, then Down when it ends — or Down
	// alone when it could not be opened.
	Dial(i int, c Conn)
}

// Conn is one connection's machine side, which its driver reports to.
type Conn interface {
	Up(w Wire)
	// Frame hands over one response frame's payload, valid only during
	// the call; an error ends the connection.
	Frame(payload []byte) error
	Down(err error)
}

// Wire is one open connection's driver side. Write queues encoded request
// frames (b is valid only during the call); Close ends the connection,
// and a Down the driver reports after it is ignored.
type Wire interface {
	Write(b []byte)
	Close()
}

// NewClient builds a *client.Client whose connections, timers and
// randomness come from env. canopus/client sets it.
var NewClient func(endpoints []string, env Env) any
