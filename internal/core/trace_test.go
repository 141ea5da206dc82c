package core

import (
	"context"
	"log/slog"
	"sync"
	"testing"
	"time"

	"canopus/internal/lot"
	"canopus/internal/wire"
)

// traceEvent is one protocol event a node traced (Callbacks.Log).
type traceEvent struct {
	self   wire.NodeID
	event  string
	cycle  uint64
	detail string
	at     time.Duration
}

// recordedTrace is what one test cluster's nodes traced, in order.
type recordedTrace struct {
	now func() time.Duration // the simulator's clock
	mu  sync.Mutex
	evs []traceEvent
}

// traceRecorder is the slog.Handler a traced test cluster gives its nodes.
// It takes the node from the attribute NewNode binds, and from each record
// the cycle and the first other attribute, the event's detail.
type traceRecorder struct {
	*recordedTrace
	self wire.NodeID
}

func (h traceRecorder) Enabled(context.Context, slog.Level) bool { return true }

func (h traceRecorder) WithGroup(string) slog.Handler { return h }

func (h traceRecorder) WithAttrs(attrs []slog.Attr) slog.Handler {
	for _, a := range attrs {
		if a.Key == "node" {
			h.self = wire.NodeID(a.Value.Int64())
		}
	}
	return h
}

func (h traceRecorder) Handle(_ context.Context, r slog.Record) error {
	e := traceEvent{self: h.self, event: r.Message, at: h.now()}
	detail := false
	r.Attrs(func(a slog.Attr) bool {
		switch {
		case a.Key == "cycle":
			e.cycle = a.Value.Uint64()
		case !detail:
			e.detail, detail = a.Value.String(), true
		}
		return true
	})
	h.mu.Lock()
	defer h.mu.Unlock()
	h.evs = append(h.evs, e)
	return nil
}

// Each node traces to the logger it was built with: two clusters recording
// in one test each see their own nodes' events and nothing of the other's,
// which one process-wide hook could not tell apart. Cluster a is one leaf
// of three with a write at node 1; cluster b is two leaves of three with a
// write at node 4 a little later.
func TestTraceIsPerNode(t *testing.T) {
	const t0 = 10 * time.Millisecond
	a := newTestCluster(t, clusterOpts{racks: 1, perRack: 3, trace: true})
	b := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, trace: true})
	a.submitAt(t0, 1, wr(1, 1, 7, 7))
	b.submitAt(2*t0, 4, wr(1, 1, 8, 8))
	a.run(time.Second)
	b.run(time.Second)
	a.requireAgreement()
	b.requireAgreement()

	for _, c := range []struct {
		name        string
		tc          *testCluster
		nodes       int
		first, from wire.NodeID
		at          time.Duration
	}{{"a", a, 3, 1, 1, t0}, {"b", b, 6, 4, 4, 2 * t0}} {
		st := starts(c.tc.trace.evs)
		if len(st) != c.nodes {
			t.Fatalf("cluster %s traced %d starts, want one per node (%d)", c.name, len(st), c.nodes)
		}
		if st[0].self != c.first || st[0].at != c.at || st[0].detail != "request" {
			t.Fatalf("cluster %s: first start at node %v at %v on %s; want node %v at %v on request",
				c.name, st[0].self, st[0].at, st[0].detail, c.first, c.at)
		}
		commits := map[wire.NodeID]int{}
		for _, e := range c.tc.trace.evs {
			if int(e.self) >= c.nodes || e.cycle > 1 {
				t.Fatalf("cluster %s traced %q of node %v, cycle %d: not one of its nodes' events", c.name, e.event, e.self, e.cycle)
			}
			if e.event == "commit" {
				commits[e.self]++
			}
		}
		if len(commits) != c.nodes {
			t.Fatalf("cluster %s traced commits at %d nodes, want %d", c.name, len(commits), c.nodes)
		}
	}
}

// With tracing off (a nil Callbacks.Log) a trace call allocates nothing:
// the level check comes before any record is built.
func TestTraceOffAllocatesNothing(t *testing.T) {
	tree, err := lot.New(lot.Config{SuperLeaves: [][]wire.NodeID{{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(Config{Tree: tree, Self: 0}, nil, Callbacks{})
	vnode := tree.Ancestor(0, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		n.trace("fetch", 7, slog.String("vnode", vnode))
		n.trace("evict-start", 7, slog.String("vnode", vnode), slog.Duration("at", time.Second), slog.Duration("started", time.Millisecond))
	}); allocs != 0 {
		t.Fatalf("a disabled trace allocates %.1f objects", allocs)
	}
}
