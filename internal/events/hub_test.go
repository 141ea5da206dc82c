package events

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"canopus/internal/wire"
)

// collect is a test sink backed by an unbounded slice with an optional
// capacity that forces overflow.
type collect struct {
	notes []Notification
	limit int // max notifications absorbed; 0 = unlimited
	dead  bool
}

func (c *collect) sink(n Notification) bool {
	if n.Overflow {
		c.dead = true
		return false
	}
	if c.limit > 0 && len(c.notes) >= c.limit {
		return false
	}
	cp := Notification{Cycle: n.Cycle, Events: make([]wire.Event, len(n.Events))}
	for i, e := range n.Events {
		cp.Events[i] = wire.Event{Op: e.Op, Key: e.Key, Val: append([]byte(nil), e.Val...)}
	}
	c.notes = append(c.notes, cp)
	return true
}

func ev(op wire.Op, key uint64, val string) wire.Event {
	var v []byte
	if val != "" {
		v = []byte(val)
	}
	return wire.Event{Op: op, Key: key, Val: v}
}

func TestWatchExactKeyAndPrefix(t *testing.T) {
	h := NewHub(Options{})
	exact, all, pre := &collect{}, &collect{}, &collect{}
	if _, err := h.Watch(Spec{Key: 0xAB00, PrefixBits: 64}, exact.sink); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Watch(Spec{PrefixBits: 0}, all.sink); err != nil {
		t.Fatal(err)
	}
	// Top 48 bits of 0xAB00: matches 0xAB00..0xABFF... no — top 48 bits
	// of a 64-bit key; keys sharing bits 63..16.
	if _, err := h.Watch(Spec{Key: 0xAB0000, PrefixBits: 40}, pre.sink); err != nil {
		t.Fatal(err)
	}

	h.Publish(1, []wire.Event{ev(wire.OpWrite, 0xAB00, "a"), ev(wire.OpWrite, 0xAB0011, "b")})
	h.Publish(2, nil)
	h.Publish(3, []wire.Event{ev(wire.OpDelete, 0xAB00, ""), ev(wire.OpWrite, 0xFF, "c")})

	if len(exact.notes) != 2 || exact.notes[0].Cycle != 1 || exact.notes[1].Cycle != 3 {
		t.Fatalf("exact watch notes = %+v", exact.notes)
	}
	if exact.notes[0].Events[0].Key != 0xAB00 || string(exact.notes[0].Events[0].Val) != "a" {
		t.Fatalf("exact watch event = %+v", exact.notes[0].Events[0])
	}
	if len(all.notes) != 2 || len(all.notes[0].Events) != 2 || len(all.notes[1].Events) != 2 {
		t.Fatalf("all watch notes = %+v", all.notes)
	}
	// Prefix 40 bits: 0xAB0000>>24 == 0; keys below 1<<24 match.
	if len(pre.notes) != 3-1 {
		t.Fatalf("prefix watch notes = %+v", pre.notes)
	}
	if h.Active() != 3 {
		t.Fatalf("active = %d, want 3", h.Active())
	}
}

func TestWatchResumeReplaysHistory(t *testing.T) {
	h := NewHub(Options{})
	h.Publish(1, []wire.Event{ev(wire.OpWrite, 1, "one")})
	h.Publish(2, []wire.Event{ev(wire.OpWrite, 2, "two")})
	h.Publish(3, nil)
	h.Publish(4, []wire.Event{ev(wire.OpWrite, 1, "one-again")})

	c := &collect{}
	if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: 2}, c.sink); err != nil {
		t.Fatal(err)
	}
	h.Publish(5, []wire.Event{ev(wire.OpDelete, 2, "")})

	wantCycles := []uint64{2, 4, 5}
	if len(c.notes) != len(wantCycles) {
		t.Fatalf("notes = %+v, want cycles %v", c.notes, wantCycles)
	}
	for i, w := range wantCycles {
		if c.notes[i].Cycle != w {
			t.Fatalf("note %d cycle = %d, want %d", i, c.notes[i].Cycle, w)
		}
	}
	if string(c.notes[0].Events[0].Val) != "two" || string(c.notes[1].Events[0].Val) != "one-again" {
		t.Fatalf("replayed values wrong: %+v", c.notes)
	}
}

func TestWatchResumePastEvictionFails(t *testing.T) {
	h := NewHub(Options{HistoryCycles: 2})
	for cyc := uint64(1); cyc <= 5; cyc++ {
		h.Publish(cyc, []wire.Event{ev(wire.OpWrite, cyc, "x")})
	}
	// Cycles 1..3 evicted; resume from 3 must fail, from 4 succeed.
	c := &collect{}
	if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: 3}, c.sink); !errors.Is(err, ErrWatchOverflow) {
		t.Fatalf("resume from evicted cycle: err = %v, want ErrWatchOverflow", err)
	}
	if len(c.notes) != 0 {
		t.Fatalf("failed resume must not deliver: %+v", c.notes)
	}
	if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: 4}, c.sink); err != nil {
		t.Fatalf("resume from retained cycle: %v", err)
	}
	if len(c.notes) != 2 || c.notes[0].Cycle != 4 || c.notes[1].Cycle != 5 {
		t.Fatalf("replay = %+v", c.notes)
	}
}

func TestHistoryByteBound(t *testing.T) {
	h := NewHub(Options{HistoryBytes: 300})
	big := make([]byte, 200)
	h.Publish(1, []wire.Event{{Op: wire.OpWrite, Key: 1, Val: big}})
	h.Publish(2, []wire.Event{{Op: wire.OpWrite, Key: 2, Val: big}})
	// Cycle 1 must have been evicted to fit cycle 2.
	if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: 1}, (&collect{}).sink); !errors.Is(err, ErrWatchOverflow) {
		t.Fatalf("err = %v, want ErrWatchOverflow", err)
	}
	c := &collect{}
	if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: 2}, c.sink); err != nil || len(c.notes) != 1 {
		t.Fatalf("resume from retained: err=%v notes=%+v", err, c.notes)
	}
}

// TestEvictedHistoryPinsOneChunk: the history's event copies come out of
// chunks of eventChunk, and eviction clears what it evicts, so after a
// long run the live heap holds the retained cycles and at most one chunk
// beyond the one they lie in, never the values of evicted cycles that
// share a chunk with retained ones. Each of 1000 cycles, not a multiple of
// the chunk size, has one event with a fresh KiB value.
func TestEvictedHistoryPinsOneChunk(t *testing.T) {
	const (
		cycles = 1000
		kept   = 8
		val    = 1 << 10
	)
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := live()
	h := NewHub(Options{HistoryCycles: kept})
	for cyc := uint64(1); cyc <= cycles; cyc++ {
		h.Publish(cyc, []wire.Event{{Op: wire.OpWrite, Key: cyc, Val: make([]byte, val)}})
	}
	used := int64(live()) - int64(base)
	// The retained values, the hub and its ring in a KiB, two chunks.
	bound := kept*val + 1<<10 + 2*eventChunk*int64(unsafe.Sizeof(wire.Event{}))
	if used > bound {
		t.Fatalf("%d retained cycles of %d leave %d live bytes, bound %d", kept, cycles, used, bound)
	}
	if h.LastCycle() != cycles || len(h.hist) != kept {
		t.Fatalf("history holds %d cycles through %d", len(h.hist), h.LastCycle())
	}
}

func TestSlowWatcherOverflows(t *testing.T) {
	h := NewHub(Options{})
	c := &collect{limit: 2}
	if _, err := h.Watch(Spec{PrefixBits: 0}, c.sink); err != nil {
		t.Fatal(err)
	}
	for cyc := uint64(1); cyc <= 5; cyc++ {
		h.Publish(cyc, []wire.Event{ev(wire.OpWrite, cyc, "x")})
	}
	if !c.dead {
		t.Fatal("saturated watcher was not overflowed")
	}
	if len(c.notes) != 2 {
		t.Fatalf("absorbed %d notifications, want 2", len(c.notes))
	}
	if h.Active() != 0 {
		t.Fatalf("active = %d after overflow, want 0", h.Active())
	}
	// The dead sink must never fire again.
	before := len(c.notes)
	h.Publish(6, []wire.Event{ev(wire.OpWrite, 6, "x")})
	if len(c.notes) != before {
		t.Fatal("overflowed watch still delivered")
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	h := NewHub(Options{})
	c := &collect{}
	id, err := h.Watch(Spec{PrefixBits: 0}, c.sink)
	if err != nil {
		t.Fatal(err)
	}
	h.Publish(1, []wire.Event{ev(wire.OpWrite, 1, "x")})
	if !h.Cancel(id) {
		t.Fatal("cancel of live watch reported not-live")
	}
	if h.Cancel(id) {
		t.Fatal("double cancel reported live")
	}
	h.Publish(2, []wire.Event{ev(wire.OpWrite, 2, "x")})
	if len(c.notes) != 1 {
		t.Fatalf("delivered after cancel: %+v", c.notes)
	}
	if c.dead {
		t.Fatal("cancel must not send an overflow notice")
	}
}

// TestFloorGatesPreHistoryResume: a hub whose node recovered or installed
// cycles 1..100 sees its first cycle, 101, as a gap — the floor of its
// history — whenever it was built.
func TestFloorGatesPreHistoryResume(t *testing.T) {
	h := NewHub(Options{})
	h.Publish(101, []wire.Event{ev(wire.OpWrite, 1, "x")})
	if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: 90}, (&collect{}).sink); !errors.Is(err, ErrWatchOverflow) {
		t.Fatalf("pre-floor resume: err = %v, want ErrWatchOverflow", err)
	}
	c := &collect{}
	if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: 101}, c.sink); err != nil || len(c.notes) != 1 {
		t.Fatalf("post-floor resume: err=%v notes=%+v", err, c.notes)
	}
	// Stale republish (e.g. recovery overlap) must be ignored.
	h.Publish(101, []wire.Event{ev(wire.OpWrite, 9, "dup")})
	if len(c.notes) != 1 {
		t.Fatal("duplicate cycle redelivered")
	}
	if got := h.LastCycle(); got != 101 {
		t.Fatalf("LastCycle = %d, want 101", got)
	}
}

func TestPublishGapEvictsResume(t *testing.T) {
	h := NewHub(Options{})
	h.Publish(1, []wire.Event{ev(wire.OpWrite, 1, "a")})
	// Cycles 2..9 were committed outside the hub's view (snapshot
	// install / recovery replay): a gap. Resumes at or below the gap
	// must fail; resume above it succeeds.
	h.Publish(10, []wire.Event{ev(wire.OpWrite, 1, "b")})
	for _, since := range []uint64{1, 5, 9} {
		if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: since}, (&collect{}).sink); !errors.Is(err, ErrWatchOverflow) {
			t.Fatalf("resume from %d across gap: err = %v, want ErrWatchOverflow", since, err)
		}
	}
	c := &collect{}
	if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: 10}, c.sink); err != nil {
		t.Fatal(err)
	}
	if len(c.notes) != 1 || c.notes[0].Cycle != 10 {
		t.Fatalf("replay = %+v", c.notes)
	}
}

// TestPublishGapOverflowsResumedWatch: a resume accepted before the hub's
// first publish — a node that recovered its log, or a joiner — asked for
// cycles the hub then skips. It must be told, not fed from past the gap;
// a live-only watch promised no history, and a watch resuming at or past
// the first published cycle needs none of the skipped ones: both stay.
func TestPublishGapOverflowsResumedWatch(t *testing.T) {
	h := NewHub(Options{})
	resumed, live, ahead := &collect{}, &collect{}, &collect{}
	if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: 5}, resumed.sink); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Watch(Spec{PrefixBits: 0}, live.sink); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Watch(Spec{PrefixBits: 0, SinceCycle: 501}, ahead.sink); err != nil {
		t.Fatal(err)
	}
	h.Publish(501, []wire.Event{ev(wire.OpWrite, 1, "x")})
	if !resumed.dead || len(resumed.notes) != 0 {
		t.Fatalf("watch resumed at 5 across the gap to 501: overflowed=%v notes=%+v", resumed.dead, resumed.notes)
	}
	if live.dead || len(live.notes) != 1 || live.notes[0].Cycle != 501 {
		t.Fatalf("live-only watch: overflowed=%v notes=%+v", live.dead, live.notes)
	}
	if ahead.dead || len(ahead.notes) != 1 || ahead.notes[0].Cycle != 501 {
		t.Fatalf("watch resumed at 501: overflowed=%v notes=%+v", ahead.dead, ahead.notes)
	}
	if h.Active() != 2 {
		t.Fatalf("active = %d, want 2", h.Active())
	}
}

func TestPrefixBitsBoundary(t *testing.T) {
	h := NewHub(Options{})
	for _, bits := range []uint8{1, 63, 64} {
		c := &collect{}
		if _, err := h.Watch(Spec{Key: 1 << 63, PrefixBits: bits}, c.sink); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
	}
	// bits=1 matches any key with the top bit set; bits=63 and 64 only
	// the exact key here.
	h.Publish(1, []wire.Event{ev(wire.OpWrite, 1<<63|5, "hi"), ev(wire.OpWrite, 5, "lo")})
	h.Publish(2, []wire.Event{ev(wire.OpWrite, 1<<63, "exact")})
	total := h.Active()
	if total != 3 {
		t.Fatalf("active = %d", total)
	}
}

func TestManyWatchersFanout(t *testing.T) {
	h := NewHub(Options{})
	sinks := make([]*collect, 100)
	for i := range sinks {
		sinks[i] = &collect{}
		if _, err := h.Watch(Spec{Key: uint64(i), PrefixBits: 64}, sinks[i].sink); err != nil {
			t.Fatal(err)
		}
	}
	var evs []wire.Event
	for i := 0; i < 100; i += 2 {
		evs = append(evs, ev(wire.OpWrite, uint64(i), fmt.Sprintf("v%d", i)))
	}
	h.Publish(1, evs)
	for i, c := range sinks {
		want := 0
		if i%2 == 0 {
			want = 1
		}
		if len(c.notes) != want {
			t.Fatalf("watcher %d got %d notifications, want %d", i, len(c.notes), want)
		}
	}
}
