package client

import (
	"errors"
	"net"
	"testing"
)

// holdingListener accepts connections and keeps them open, never
// answering: an endpoint that is up as far as a dial can tell.
func holdingListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { nc.Close() })
		}
	}()
	return ln.Addr().String()
}

// TestStartOnPoisonedConnectionCountsTheFailover pins who owns "this
// connection stopped being current". conn.fail marks a connection failed
// before its failure handler takes the client lock; a start that runs in
// between finds the current connection refusing its operation. Whichever
// of the two notices first must move new traffic to the next endpoint and
// count the failover — once. (Before, start detached the connection
// without either, so the failover went uncounted and the redial went back
// to the crashed endpoint first: TestWatchResumeAcrossCrash "failovers =
// 0", about 1 run in 40.)
func TestStartOnPoisonedConnectionCountsTheFailover(t *testing.T) {
	a, b := holdingListener(t), holdingListener(t)
	cl, err := New(Config{Endpoints: []string{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The current connection, to endpoint a, as start installs it.
	cn, err := cl.dial()
	if err != nil {
		t.Fatal(err)
	}
	cl.mu.Lock()
	cl.conn = cn
	cl.mu.Unlock()
	if got := cn.nc.RemoteAddr().String(); got != a {
		t.Fatalf("first dial went to %s, want %s", got, a)
	}

	// The first half of conn.fail: marked failed, handler not yet run.
	cause := errors.New("poisoned")
	cn.mu.Lock()
	cn.err = cause
	cn.mu.Unlock()

	if err := cl.start(&pendingOp{op: Op{Kind: OpGet, Key: 1}, fn: func(Result, error) {}}); err != nil {
		t.Fatalf("start on a poisoned connection: %v", err)
	}
	if got := cl.Stats().Failovers; got != 1 {
		t.Fatalf("failovers after start = %d, want 1", got)
	}
	cl.mu.Lock()
	cur, next := cl.conn, cl.next
	cl.mu.Unlock()
	if cur == nil || cur == cn || cur.nc.RemoteAddr().String() != b {
		t.Fatalf("the redial did not go to the other endpoint %s (next = %d)", b, next)
	}

	// The second half, late: the handler finds the connection already
	// retired and neither counts again nor moves the cursor.
	close(cn.done)
	cn.nc.Close()
	cl.onConnFailure(cn, nil, cause)
	if got := cl.Stats().Failovers; got != 1 {
		t.Fatalf("failovers after the late failure handler = %d, want still 1", got)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.conn != cur || cl.next != next {
		t.Fatalf("the late failure handler moved the client off %s", b)
	}
}
