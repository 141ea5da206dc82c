package transport

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

// timerMachine records the tags of the timers that fire into it and the
// runner time at which each did.
type timerMachine struct {
	env   engine.Env
	onIni func(env engine.Env)
	mu    sync.Mutex
	tags  []engine.TimerTag
	at    []time.Duration
	done  chan struct{} // receives once want timers have fired
	want  int
}

func (m *timerMachine) Init(env engine.Env) {
	m.env = env
	if m.onIni != nil {
		m.onIni(env)
	}
}
func (m *timerMachine) Recv(wire.NodeID, wire.Message) {}
func (m *timerMachine) Timer(tag engine.TimerTag) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tags = append(m.tags, tag)
	m.at = append(m.at, m.env.Now())
	if len(m.tags) == m.want {
		m.done <- struct{}{}
	}
}

func (m *timerMachine) fired() []engine.TimerTag {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]engine.TimerTag(nil), m.tags...)
}

func timerRunner(tb testing.TB) *Runner {
	tb.Helper()
	r, err := NewRunner(0, "127.0.0.1:0", map[wire.NodeID]string{}, 3)
	if err != nil {
		tb.Fatal(err)
	}
	r.Logf = func(string, ...interface{}) {}
	tb.Cleanup(r.Close)
	return r
}

func waitTimers(t *testing.T, m *timerMachine) {
	t.Helper()
	select {
	case <-m.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d of %d timers fired", len(m.fired()), m.want)
	}
}

// TestTimersFireInDeadlineOrder arms timers out of order; they fire by
// deadline, and equal deadlines in arming order.
func TestTimersFireInDeadlineOrder(t *testing.T) {
	r := timerRunner(t)
	m := &timerMachine{want: 4, done: make(chan struct{}, 1)}
	m.onIni = func(env engine.Env) {
		env.After(30*time.Millisecond, 3)
		env.After(10*time.Millisecond, 1)
		env.After(20*time.Millisecond, 2)
		env.After(30*time.Millisecond, 4)
	}
	r.Attach(m)
	waitTimers(t, m)
	got := m.fired()
	for i, want := range []engine.TimerTag{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("timers fired in order %v, want [1 2 3 4]", got)
		}
	}
	for i, d := range []time.Duration{10, 20, 30, 30} {
		if m.at[i] < d*time.Millisecond {
			t.Fatalf("timer %d fired at %v, before its %v ms deadline", got[i], m.at[i], d)
		}
	}
}

// TestTimerHeapUnderLoad arms a few hundred timers with random delays from
// several turns, some from timer handlers themselves: every one fires, none
// early, in non-decreasing deadline order.
func TestTimerHeapUnderLoad(t *testing.T) {
	r := timerRunner(t)
	const n = 300
	m := &timerMachine{want: n, done: make(chan struct{}, 1)}
	r.Attach(m)
	rng := rand.New(rand.NewSource(5))
	deadline := make(map[engine.TimerTag]time.Duration, n)
	var mu sync.Mutex
	for i := 0; i < n; i += 10 {
		r.Invoke(func() {
			for j := i; j < i+10; j++ {
				d := time.Duration(rng.Intn(20_000)) * time.Microsecond
				mu.Lock()
				deadline[engine.TimerTag(j)] = r.Now() + d
				mu.Unlock()
				r.After(d, engine.TimerTag(j))
			}
		})
		time.Sleep(200 * time.Microsecond)
	}
	waitTimers(t, m)
	got := m.fired()
	seen := make(map[engine.TimerTag]bool, n)
	var last time.Duration
	for i, tag := range got {
		if seen[tag] {
			t.Fatalf("timer %d fired twice", tag)
		}
		seen[tag] = true
		// After reads the clock just after the test did, so the recorded
		// deadline is a lower bound of the real one.
		if m.at[i] < deadline[tag] {
			t.Fatalf("timer %d fired at %v, before its deadline %v", tag, m.at[i], deadline[tag])
		}
		if m.at[i] < last {
			t.Fatalf("timer %d fired at %v after one at %v", tag, m.at[i], last)
		}
		last = m.at[i]
	}
	r.mu.Lock()
	left := len(r.timers)
	r.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d timers left in the heap after all fired", left)
	}
}

// TestReplacedMachinesTimersDie: a timer armed by a machine that a later
// Attach replaced must not fire into the successor.
func TestReplacedMachinesTimersDie(t *testing.T) {
	r := timerRunner(t)
	old := &timerMachine{want: 1, done: make(chan struct{}, 1)}
	old.onIni = func(env engine.Env) { env.After(10*time.Millisecond, 7) }
	r.Attach(old)
	next := &timerMachine{want: 1, done: make(chan struct{}, 1)}
	next.onIni = func(env engine.Env) { env.After(30*time.Millisecond, 8) }
	r.Attach(next)
	waitTimers(t, next)
	if got := next.fired(); len(got) != 1 || got[0] != 8 {
		t.Fatalf("successor saw timers %v, want only its own [8]", got)
	}
	if got := old.fired(); len(got) != 0 {
		t.Fatalf("replaced machine saw timers %v", got)
	}
}

// TestCloseStopsTimers: nothing fires after Close.
func TestCloseStopsTimers(t *testing.T) {
	r := timerRunner(t)
	m := &timerMachine{want: 1, done: make(chan struct{}, 1)}
	m.onIni = func(env engine.Env) { env.After(20*time.Millisecond, 1) }
	r.Attach(m)
	r.Close()
	time.Sleep(60 * time.Millisecond)
	if got := m.fired(); len(got) != 0 {
		t.Fatalf("timers %v fired after Close", got)
	}
}
