package client

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"canopus/internal/clientio"
	"canopus/internal/wire"
)

// fakeEnv drives the client machine by hand: dials and timers are
// recorded for the test to answer, and nothing runs on its own.
type fakeEnv struct {
	rng   *rand.Rand
	dials []fakeDial
}

type fakeDial struct {
	ep int
	c  clientio.Conn
}

func (e *fakeEnv) Rand() *rand.Rand            { return e.rng }
func (e *fakeEnv) After(time.Duration, func()) {}
func (e *fakeEnv) Dial(i int, c clientio.Conn) { e.dials = append(e.dials, fakeDial{i, c}) }
func newFakeClient(endpoints ...string) (*Client, *fakeEnv) {
	env := &fakeEnv{rng: rand.New(rand.NewSource(1))}
	return clientio.NewClient(endpoints, env).(*Client), env
}

// fakeWire keeps the last frame written to it.
type fakeWire struct {
	last   []byte
	closed bool
}

func (w *fakeWire) Write(b []byte) { w.last = append(w.last[:0], b...) }
func (w *fakeWire) Close()         { w.closed = true }

// lastID is the correlation ID of the last request frame written: every
// frame shape opens with it, after the length.
func (w *fakeWire) lastID() uint64 { return binary.LittleEndian.Uint64(w.last[4:12]) }

// answer hands c one response frame, encoded into buf.
func answer(t *testing.T, c clientio.Conn, buf *[]byte, resp *wire.ClientResponseV2) {
	*buf = wire.AppendClientResponseV3((*buf)[:0], resp)
	if err := c.Frame((*buf)[4:]); err != nil {
		t.Fatal(err)
	}
}

// TestStartOnPoisonedConnectionCountsTheFailover pins who owns "this
// connection stopped being current": whichever report of its end comes
// first — a retryable rejection, or the driver's Down — moves new
// traffic to the next endpoint and counts the failover, once. A late
// second report neither counts again nor moves the cursor. (Before the
// machine had one lock, a start that raced a failing connection could
// detach it uncounted, and the redial went back to the crashed endpoint:
// TestWatchResumeAcrossCrash "failovers = 0", about 1 run in 40.)
func TestStartOnPoisonedConnectionCountsTheFailover(t *testing.T) {
	cl, env := newFakeClient("a", "b")
	var got []error
	cl.Async(Op{Kind: OpGet, Key: 1}, func(_ Result, err error) { got = append(got, err) })
	if len(env.dials) != 1 || env.dials[0].ep != 0 {
		t.Fatalf("first dial: %+v, want endpoint 0", env.dials)
	}
	w0 := &fakeWire{}
	env.dials[0].c.Up(w0)
	env.dials[0].c.Down(errors.New("poisoned"))
	if n := cl.Stats().Failovers; n != 1 {
		t.Fatalf("failovers after the connection ended = %d, want 1", n)
	}
	if len(env.dials) != 2 || env.dials[1].ep != 1 {
		t.Fatalf("the redial did not go to the other endpoint: %+v", env.dials)
	}
	env.dials[0].c.Down(errors.New("late"))
	if n := cl.Stats().Failovers; n != 1 || len(env.dials) != 2 {
		t.Fatalf("a late second Down: failovers %d, %d dials; want 1 and 2", n, len(env.dials))
	}
	w1 := &fakeWire{}
	env.dials[1].c.Up(w1)
	var buf []byte
	answer(t, env.dials[1].c, &buf, &wire.ClientResponseV2{ID: w1.lastID(), Status: wire.ClientStatusErr, Code: wire.CodeDraining})
	if len(got) != 1 || !errors.Is(got[0], ErrRejected) {
		t.Fatalf("the retried read completed with %v, want one ErrRejected", got)
	}
	// The rejection retired endpoint 1 (a failover) and its connection,
	// which has nothing left in flight; its Down is then stale.
	env.dials[1].c.Down(errors.New("late"))
	if n := cl.Stats().Failovers; n != 2 || !w1.closed {
		t.Fatalf("after the rejection: failovers %d, closed %v; want 2 and true", n, w1.closed)
	}
}

// TestAsyncOkSteadyStateAllocs pins the client's hot path: one AsyncOk
// operation through the machine — its frame out, its reply in, its
// callback — allocates nothing once a connection and a session are up.
func TestAsyncOkSteadyStateAllocs(t *testing.T) {
	cl, env := newFakeClient("a")
	ok := 0
	done := func(o bool) {
		if o {
			ok++
		}
	}
	cl.AsyncOk(Op{Kind: OpPut, Key: 1, Val: []byte("v")}, done)
	w := &fakeWire{}
	c := env.dials[0].c
	c.Up(w)
	var buf []byte
	answer(t, c, &buf, &wire.ClientResponseV2{ID: w.lastID(), Status: wire.ClientStatusOK, Cycle: 1,
		Val: binary.LittleEndian.AppendUint64(nil, 1|wire.SessionIDBit)})
	answer(t, c, &buf, &wire.ClientResponseV2{ID: w.lastID(), Status: wire.ClientStatusOK, Cycle: 2})
	val := []byte("value")
	for _, tc := range []struct {
		name string
		op   Op
	}{
		{"put", Op{Kind: OpPut, Key: 7, Val: val}},
		{"get", Op{Kind: OpGet, Key: 7}},
	} {
		resp := wire.ClientResponseV2{Status: wire.ClientStatusOK, Cycle: 3}
		run := func() {
			cl.AsyncOk(tc.op, done)
			resp.ID = w.lastID()
			answer(t, c, &buf, &resp)
		}
		for i := 0; i < 100; i++ {
			run()
		}
		if n := testing.AllocsPerRun(1000, run); n != 0 {
			t.Errorf("%s: %.2f allocations per operation, want 0", tc.name, n)
		}
	}
	if ok != 1+2*(100+1001) {
		t.Fatalf("%d operations succeeded, want %d", ok, 1+2*(100+1001))
	}
}
