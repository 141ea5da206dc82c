package engine

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"canopus/internal/wire"
)

func TestTagRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		kind    uint8
		payload uint64
	}{
		{0, 0},
		{1, 42},
		{255, 0},
		{7, 1<<56 - 1}, // max payload
		{255, 1<<56 - 1},
	} {
		tag := Tag(tc.kind, tc.payload)
		if got := TagKind(tag); got != tc.kind {
			t.Errorf("TagKind(Tag(%d, %d)) = %d", tc.kind, tc.payload, got)
		}
		if got := TagPayload(tag); got != tc.payload {
			t.Errorf("TagPayload(Tag(%d, %d)) = %d", tc.kind, tc.payload, got)
		}
	}
}

func TestTagPayloadMasksOverflow(t *testing.T) {
	// A payload wider than 56 bits must not corrupt the kind.
	tag := Tag(9, 1<<60|5)
	if TagKind(tag) != 9 || TagPayload(tag) != 5 {
		t.Fatalf("overflowing payload corrupted the tag: kind=%d payload=%d", TagKind(tag), TagPayload(tag))
	}
}

// ---- a minimal deterministic in-package driver ----
//
// testEnv implements Env just far enough to pin down the contract every
// real driver (netsim.Runner, transport.Runner) must satisfy: virtual
// time, per-(src,dst) FIFO delivery, timer ordering, and determinism
// given a fixed seed.

type tevent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type theap []tevent

func (h theap) Len() int { return len(h) }
func (h theap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h theap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *theap) Push(x interface{}) { *h = append(*h, x.(tevent)) }
func (h *theap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

type testWorld struct {
	now   time.Duration
	seq   uint64
	queue theap
	envs  map[NodeID]*testEnv
	delay time.Duration
}

func newTestWorld(delay time.Duration, seed int64, ids ...NodeID) *testWorld {
	w := &testWorld{envs: make(map[NodeID]*testEnv), delay: delay}
	for _, id := range ids {
		w.envs[id] = &testEnv{
			w: w, id: id,
			rng: rand.New(rand.NewSource(seed + int64(id))),
		}
	}
	return w
}

func (w *testWorld) at(d time.Duration, fn func()) {
	if d < w.now {
		d = w.now
	}
	w.seq++
	heap.Push(&w.queue, tevent{at: d, seq: w.seq, fn: fn})
}

func (w *testWorld) run() {
	for len(w.queue) > 0 {
		e := heap.Pop(&w.queue).(tevent)
		w.now = e.at
		e.fn()
	}
}

func (w *testWorld) register(id NodeID, m Machine) {
	w.envs[id].m = m
	m.Init(w.envs[id])
}

type testEnv struct {
	w   *testWorld
	id  NodeID
	m   Machine
	rng *rand.Rand
}

func (e *testEnv) ID() NodeID         { return e.id }
func (e *testEnv) Now() time.Duration { return e.w.now }
func (e *testEnv) Rand() *rand.Rand   { return e.rng }
func (e *testEnv) Send(to NodeID, m wire.Message) {
	dst := e.w.envs[to]
	e.w.at(e.w.now+e.w.delay, func() { dst.m.Recv(e.id, m) })
}
func (e *testEnv) Multicast(to []NodeID, m wire.Message) {
	for _, id := range to {
		e.Send(id, m)
	}
}
func (e *testEnv) After(d time.Duration, tag TimerTag) {
	e.w.at(e.w.now+d, func() { e.m.Timer(tag) })
}

// traceMachine logs everything that happens to it.
type traceMachine struct {
	env   Env
	trace []string
	// onInit programs behaviour scheduled during Init.
	onInit func(m *traceMachine, env Env)
	// echo replies to each received message once.
	echo bool
}

func (m *traceMachine) Init(env Env) {
	m.env = env
	if m.onInit != nil {
		m.onInit(m, env)
	}
}

func (m *traceMachine) Recv(from NodeID, msg wire.Message) {
	p := msg.(*wire.JoinRequest)
	m.trace = append(m.trace, fmt.Sprintf("%v:recv:%v:%d", m.env.Now(), from, p.Nonce))
	if m.echo {
		m.env.Send(from, &wire.JoinRequest{From: m.env.ID(), Nonce: p.Nonce + 100})
	}
}

func (m *traceMachine) Timer(tag TimerTag) {
	m.trace = append(m.trace, fmt.Sprintf("%v:timer:%d:%d", m.env.Now(), TagKind(tag), TagPayload(tag)))
}

func TestTimerOrdering(t *testing.T) {
	w := newTestWorld(time.Millisecond, 1, 0)
	m := &traceMachine{onInit: func(m *traceMachine, env Env) {
		// Scheduled out of order; must fire in time order, FIFO among
		// equal deadlines.
		env.After(5*time.Millisecond, Tag(1, 5))
		env.After(time.Millisecond, Tag(1, 1))
		env.After(3*time.Millisecond, Tag(1, 3))
		env.After(3*time.Millisecond, Tag(2, 3))
	}}
	w.register(0, m)
	w.run()
	want := []string{
		"1ms:timer:1:1",
		"3ms:timer:1:3",
		"3ms:timer:2:3",
		"5ms:timer:1:5",
	}
	if len(m.trace) != len(want) {
		t.Fatalf("trace = %v", m.trace)
	}
	for i := range want {
		if m.trace[i] != want[i] {
			t.Fatalf("timer order: trace[%d] = %q, want %q (full: %v)", i, m.trace[i], want[i], m.trace)
		}
	}
}

func TestMessageDeliveryFIFOAndEcho(t *testing.T) {
	w := newTestWorld(time.Millisecond, 1, 0, 1)
	a := &traceMachine{onInit: func(m *traceMachine, env Env) {
		env.Send(1, &wire.JoinRequest{From: 0, Nonce: 1})
		env.Send(1, &wire.JoinRequest{From: 0, Nonce: 2})
		env.Send(1, &wire.JoinRequest{From: 0, Nonce: 3})
	}}
	b := &traceMachine{echo: true}
	w.register(1, b) // register b first: init order must not matter for FIFO
	w.register(0, a)
	w.run()
	if len(b.trace) != 3 {
		t.Fatalf("b received %d messages, want 3: %v", len(b.trace), b.trace)
	}
	for i, want := range []string{"1ms:recv:n0:1", "1ms:recv:n0:2", "1ms:recv:n0:3"} {
		if b.trace[i] != want {
			t.Fatalf("per-pair FIFO violated: %v", b.trace)
		}
	}
	// Echoes return in the same order.
	for i, want := range []string{"2ms:recv:n1:101", "2ms:recv:n1:102", "2ms:recv:n1:103"} {
		if a.trace[i] != want {
			t.Fatalf("echo order violated: %v", a.trace)
		}
	}
}

func TestEnvDeterminism(t *testing.T) {
	run := func() ([]string, []uint64) {
		w := newTestWorld(time.Millisecond, 42, 0, 1)
		var draws []uint64
		a := &traceMachine{onInit: func(m *traceMachine, env Env) {
			for i := uint64(1); i <= 5; i++ {
				draws = append(draws, env.Rand().Uint64())
				env.Send(1, &wire.JoinRequest{From: 0, Nonce: i})
				env.After(time.Duration(i)*time.Millisecond, Tag(1, i))
			}
		}}
		b := &traceMachine{echo: true}
		w.register(0, a)
		w.register(1, b)
		w.run()
		return append(a.trace, b.trace...), draws
	}
	t1, d1 := run()
	t2, d2 := run()
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, t1[i], t2[i])
		}
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("rand streams diverge at %d", i)
		}
	}
}

func TestMulticastReachesAll(t *testing.T) {
	w := newTestWorld(time.Millisecond, 1, 0, 1, 2, 3)
	a := &traceMachine{onInit: func(m *traceMachine, env Env) {
		env.Multicast([]NodeID{1, 2, 3}, &wire.JoinRequest{From: 0, Nonce: 7})
	}}
	ms := []*traceMachine{a, {}, {}, {}}
	for i, m := range ms {
		w.register(NodeID(i), m)
	}
	w.run()
	for i := 1; i <= 3; i++ {
		if len(ms[i].trace) != 1 {
			t.Fatalf("node %d trace = %v", i, ms[i].trace)
		}
	}
}
