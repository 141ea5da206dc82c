package transport

import (
	"math/rand"
	"runtime"
	"slices"
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
	left := len(r.near.heap) + len(r.far.heap)
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

// TestCloseStopsTimers: nothing fires after Close, and Close ends the
// goroutine that waits on the deadline source — a process that restarts
// nodes creates and closes many runners.
func TestCloseStopsTimers(t *testing.T) {
	before := runtime.NumGoroutine()
	r := timerRunner(t)
	m := &timerMachine{want: 1, done: make(chan struct{}, 1)}
	m.onIni = func(env engine.Env) { env.After(20*time.Millisecond, 1) }
	r.Attach(m)
	r.Close()
	time.Sleep(60 * time.Millisecond)
	if got := m.fired(); len(got) != 0 {
		t.Fatalf("timers %v fired after Close", got)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the runner", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPastDeadlineFires: a deadline that is already due when it is armed
// still fires (a timerfd set to zero would be disarmed instead).
func TestPastDeadlineFires(t *testing.T) {
	r := timerRunner(t)
	m := &timerMachine{want: 2, done: make(chan struct{}, 1)}
	m.onIni = func(env engine.Env) {
		env.After(0, 1)
		env.After(-time.Millisecond, 2)
	}
	r.Attach(m)
	waitTimers(t, m)
}

// TestOnlyNearDeadlinesAreTimed: a near deadline armed after a far one
// fires first, and the lateness histogram times only the near deadline —
// the far one's sub-millisecond lateness is the time.Timer's by design.
func TestOnlyNearDeadlinesAreTimed(t *testing.T) {
	r := timerRunner(t)
	m := &timerMachine{want: 2, done: make(chan struct{}, 1)}
	m.onIni = func(env engine.Env) {
		env.After(20*time.Millisecond, 2)
		env.After(300*time.Microsecond, 1)
	}
	r.Attach(m)
	waitTimers(t, m)
	if got := m.fired(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("timers fired in order %v, want [1 2]", got)
	}
	if got := r.stats.timerLate.Count(); got != 1 {
		t.Fatalf("the lateness histogram holds %d observations, want 1 (the near deadline's)", got)
	}
}

// TestTimerFiresOnTime: on an idle runner a sub-millisecond deadline fires
// within a fraction of itself — the pace of a node's cycles is such a
// deadline. A time.Timer fires a 500 µs one about 570 µs late at the
// median while the process is idle, because the runtime's netpoller sleeps
// in whole milliseconds; the timerfd fires it within about 10 µs.
func TestTimerFiresOnTime(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the deadline source is a time.Timer here, which may fire a millisecond late")
	}
	r := timerRunner(t)
	m := &timerMachine{done: make(chan struct{}, 1)}
	r.Attach(m)
	const n, d = 200, 500 * time.Microsecond
	late := make([]time.Duration, n)
	for i := range late {
		m.mu.Lock()
		m.want = i + 1
		m.mu.Unlock()
		var due time.Duration
		r.Invoke(func() {
			r.After(d, 1)
			due = r.near.heap[0].at
		})
		waitTimers(t, m)
		m.mu.Lock()
		late[i] = m.at[i] - due
		m.mu.Unlock()
	}
	slices.Sort(late)
	if p50 := late[n/2]; p50 > 200*time.Microsecond {
		t.Fatalf("a %v deadline fired %v late at the median (p99 %v), want under 200µs", d, p50, late[n*99/100])
	}
	if got := r.stats.timerLate.Count(); got != n {
		t.Fatalf("the lateness histogram holds %d observations for %d fires", got, n)
	}
}
