package core_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"canopus/internal/core"
	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/netsim"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

// The apply stage has one body and two drivers. This file runs one seeded
// schedule through each — the inline driver every simulation uses, and the
// goroutine driver live nodes use, here put under the simulator by
// core.GoStage — and requires the same observable output from both.

// syncLog is a Durability hook over a wal.Manager that remembers how far
// the log has been appended and synced. Its methods and the node's
// consumers all run on the apply stage, so they need no lock among
// themselves.
type syncLog struct {
	mgr              *wal.Manager
	appended, synced uint64
}

func (d *syncLog) AppendCommit(cycle uint64, root *wire.Proposal) error {
	d.appended = cycle
	return d.mgr.AppendCommit(cycle, root)
}

func (d *syncLog) Sync() error {
	err := d.mgr.Sync()
	d.synced = d.appended
	return err
}

// driverTrace is what one run of the schedule showed at node 0 and left
// behind on every node.
type driverTrace struct {
	Events     []string // one line per committed cycle: its key-change events
	Replies    []string // node 0's replies in delivery order
	Rejected   []string // node 0's session rejections in delivery order
	LocalReads []string // ReadLocal results in delivery order
	WAL        []string // node 0's log records in file order
	State      []uint64 // StateDigest per node
	Logs       []uint64 // LogDigest of the nodes that never restarted
	Early      []string // anything of a cycle released before its Sync returned
	// Streams are node 0's committed stream as each of its two consumers
	// was handed it, one line per Commit.
	Streams [2][]string
	// Undurable is node 1's committed stream: a node without Durability,
	// whose plans take the same delivery path with nothing to sync.
	Undurable []string
}

// orphan is a session no replica ever registered.
const orphan = wire.SessionIDBit | 99

// renderCommit is one line of a committed stream: everything a Commit
// carries.
func renderCommit(c *core.Commit) string {
	line := fmt.Sprintf("%d order", c.Cycle)
	for _, b := range c.Order {
		line += fmt.Sprintf(" %d:%d", b.Origin, len(b.Reqs))
	}
	line += " events"
	for _, ev := range c.Events {
		line += fmt.Sprintf(" %v/%d=%q", ev.Op, ev.Key, ev.Val)
	}
	line += " replies"
	for i := range c.Replies {
		line += fmt.Sprintf(" %d/%d=%q", c.Replies[i].Client, c.Replies[i].Seq, c.Vals[i])
	}
	line += " rejected"
	for i := range c.Rejected {
		line += fmt.Sprintf(" %d/%d", c.Rejected[i].Client, c.Rejected[i].Seq)
	}
	return line
}

func runDriverSchedule(t *testing.T, goroutine bool) driverTrace {
	t.Helper()
	sim := netsim.NewSim()
	topo := netsim.SingleDC(1, 3)
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), 7)
	tree, err := lot.New(lot.Config{SuperLeaves: [][]wire.NodeID{topo.RackMembers(0)}})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu  sync.Mutex // the trace is written on the stage, read here at the end
		out driverTrace
	)
	disk := wal.NewMemFS()
	store0 := kvstore.NewLogged()
	mgr, err := wal.Open(wal.Options{FS: disk, Store: store0, SnapshotCycles: -1})
	if err != nil {
		t.Fatal(err)
	}
	dur := &syncLog{mgr: mgr}
	// Node 0's consumers: the trace, and a second one that only records the
	// stream it is handed.
	trace := core.ConsumerFunc(func(c *core.Commit) {
		mu.Lock()
		defer mu.Unlock()
		out.Streams[0] = append(out.Streams[0], renderCommit(c))
		early := func(what string) {
			if dur.synced < c.Cycle {
				out.Early = append(out.Early, fmt.Sprintf("%s of cycle %d at synced %d", what, c.Cycle, dur.synced))
			}
		}
		early("events")
		line := fmt.Sprintf("%d:", c.Cycle)
		for _, ev := range c.Events {
			line += fmt.Sprintf(" %v/%d=%q", ev.Op, ev.Key, ev.Val)
		}
		out.Events = append(out.Events, line)
		if len(c.Replies) > 0 {
			early("replies")
		}
		for i, req := range c.Replies {
			out.Replies = append(out.Replies, fmt.Sprintf("%d/%d %v/%d=%q", req.Client, req.Seq, req.Op, req.Key, c.Vals[i]))
		}
		for _, req := range c.Rejected {
			rejected := fmt.Sprintf("%d/%d %v/%d=%q", req.Client, req.Seq, req.Op, req.Key, req.Val)
			early("rejected " + rejected)
			out.Rejected = append(out.Rejected, rejected)
		}
	})
	twin := core.ConsumerFunc(func(c *core.Commit) {
		mu.Lock()
		defer mu.Unlock()
		out.Streams[1] = append(out.Streams[1], renderCommit(c))
	})
	undurable := core.ConsumerFunc(func(c *core.Commit) {
		mu.Lock()
		defer mu.Unlock()
		out.Undurable = append(out.Undurable, renderCommit(c))
	})

	stores := []*kvstore.Store{store0, kvstore.NewLogged(), kvstore.NewLogged()}
	nodes := make([]*core.Node, 3)
	start := func(id wire.NodeID, n *core.Node) {
		if goroutine {
			core.GoStage(n)
		}
		t.Cleanup(n.Close)
		nodes[id] = n
	}
	for i := range nodes {
		cfg := core.Config{Tree: tree, Self: wire.NodeID(i)}
		cbs := core.Callbacks{}
		switch i {
		case 0:
			cfg.Durability = dur
			cbs.Consumers = []core.Consumer{trace, twin}
		case 1:
			cbs.Consumers = []core.Consumer{undurable}
		}
		n := core.NewNode(cfg, stores[i], cbs)
		start(wire.NodeID(i), n)
		runner.Register(wire.NodeID(i), n)
	}

	at := func(ms int, fn func()) { sim.At(time.Duration(ms)*time.Millisecond, fn) }
	write := func(client, seq, key uint64, val string) wire.Request {
		return wire.Request{Client: client, Seq: seq, Op: wire.OpWrite, Key: key, Val: []byte(val)}
	}

	// Writes, and a read at its arrival position between two of them.
	at(1, func() {
		nodes[0].Submit(write(1, 1, 10, "first"))
		nodes[0].Submit(wire.Request{Client: 2, Seq: 1, Op: wire.OpRead, Key: 10})
		nodes[0].Submit(write(1, 2, 10, "second"))
	})
	// A session, a transaction under it that owns an ephemeral key, and a
	// committed-state read parked two cycles ahead of what is ordered.
	var session uint64
	at(20, func() {
		nodes[0].RegisterSession(func(id uint64, ok bool) {
			if !ok {
				t.Error("session registration failed")
			}
			session = id
		})
	})
	at(40, func() {
		nodes[0].Submit(wire.Request{Client: session, Seq: 1, Op: wire.OpTxn, Val: wire.AppendTxn(nil, &wire.Txn{
			Guards: []wire.TxnGuard{{Kind: wire.GuardValueEq, Key: 10, Val: []byte("second")}},
			Ops: []wire.TxnOp{
				{Op: wire.OpWrite, Key: 50, Val: []byte("ephemeral"), Ephemeral: true},
				{Op: wire.OpWrite, Key: 11, Val: []byte("txn")},
			},
		})})
		nodes[0].ReadLocal(11, nodes[0].Ordered()+2, func(val []byte, cycle uint64, ok bool) {
			mu.Lock()
			defer mu.Unlock()
			out.LocalReads = append(out.LocalReads, fmt.Sprintf("11=%q ok=%v", val, ok))
		})
	})
	at(60, func() { nodes[1].Submit(write(3, 1, 12, "remote")) })
	at(80, func() { nodes[0].Submit(write(1, 3, 13, "third")) })
	// A write under a session nobody registered: applied nowhere, rejected
	// at node 0.
	at(90, func() { nodes[0].Submit(write(orphan, 1, 16, "orphan")) })
	// Node 2 crashes and, once its peers have seen it fail, comes back
	// through the join protocol: its first request goes to node 0, whose
	// snapshot is taken on the stage, and the install rides the joiner's.
	at(100, func() { runner.Crash(2) })
	at(1500, func() {
		stores[2] = kvstore.NewLogged()
		joiner := core.NewJoiner(core.Config{Tree: tree, Self: 2}, stores[2], core.Callbacks{})
		start(2, joiner)
		runner.Restart(2, joiner)
	})
	at(2500, func() { nodes[0].Submit(write(1, 4, 14, "after-join")) })
	at(2520, func() { nodes[2].Submit(write(4, 1, 15, "from-joiner")) })
	// The session expires: its ephemeral key goes with it, as an event.
	at(2600, func() { nodes[0].ExpireSession(session, nil) })
	at(2700, func() { nodes[0].Submit(wire.Request{Client: 2, Seq: 2, Op: wire.OpRead, Key: 50}) })

	// Step the simulation and let the goroutine stages catch up after each
	// step, so that apply backpressure — the one way a lagging stage feeds
	// back into the protocol — never shapes the schedule.
	for now := time.Millisecond; now <= 3*time.Second; now += time.Millisecond {
		sim.RunUntil(now)
		for _, n := range nodes {
			n.DrainApply()
		}
	}
	for _, n := range nodes {
		n.Close()
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	if nodes[2].Committed() != nodes[0].Committed() || nodes[2].Committed() == 0 {
		t.Fatalf("joiner at cycle %d, node 0 at %d", nodes[2].Committed(), nodes[0].Committed())
	}
	for i, st := range stores {
		out.State = append(out.State, st.StateDigest())
		if i != 2 {
			out.Logs = append(out.Logs, st.LogDigest())
		}
	}
	names, err := disk.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "wal-") {
			continue
		}
		f, err := disk.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		err = wal.ScanSegment(data, func(cycle uint64, root *wire.Proposal) error {
			h := fnv.New64a()
			h.Write(root.AppendTo(nil))
			out.WAL = append(out.WAL, fmt.Sprintf("%d:%016x", cycle, h.Sum64()))
			return nil
		})
		if err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
	}
	return out
}

// TestStageDriversAgree runs the schedule once through each driver and
// compares everything a node shows the outside: per-cycle event lists,
// reply order, session rejections, committed-state reads, replica and log
// digests, the WAL record sequence and the committed streams of a durable
// node and of one without Durability — and, in both, that nothing of
// cycle k was released before the Sync covering k returned, and that the
// durable node's two consumers were handed one stream.
func TestStageDriversAgree(t *testing.T) {
	inline := runDriverSchedule(t, false)
	if len(inline.Early) != 0 {
		t.Fatalf("inline driver released before the sync: %v", inline.Early)
	}
	want := fmt.Sprintf(`%d/1 write/16="orphan"`, uint64(orphan))
	if !reflect.DeepEqual(inline.Rejected, []string{want}) {
		t.Fatalf("rejections %q, want [%s]", inline.Rejected, want)
	}
	if len(inline.Streams[0]) != len(inline.Events) || !reflect.DeepEqual(inline.Streams[0], inline.Streams[1]) {
		t.Fatalf("two consumers of one node were handed different streams:\n%q\n%q", inline.Streams[0], inline.Streams[1])
	}
	if len(inline.Undurable) != len(inline.Streams[0]) {
		t.Fatalf("node 1 delivered %d cycles, node 0 %d", len(inline.Undurable), len(inline.Streams[0]))
	}
	// The schedule did what it says: the read between the two writes saw
	// the first, the transaction committed, the parked read was served
	// with the transaction's write, the ephemeral key died with its
	// session, the WAL has a record per cycle and the replicas agree.
	for _, want := range []string{`2/1 read/10="first"`, `2/2 read/50=""`} {
		if !slices.Contains(inline.Replies, want) {
			t.Fatalf("replies %q lack %q", inline.Replies, want)
		}
	}
	if !reflect.DeepEqual(inline.LocalReads, []string{`11="txn" ok=true`}) {
		t.Fatalf("parked read: %q", inline.LocalReads)
	}
	events := strings.Join(inline.Events, "\n")
	if !strings.Contains(events, `write/50="ephemeral" write/11="txn"`) || !strings.Contains(events, "delete/50") {
		t.Fatalf("events lack the transaction or the expiry: %q", inline.Events)
	}
	if len(inline.WAL) != len(inline.Events) || len(inline.WAL) < 8 {
		t.Fatalf("%d WAL records for %d cycles", len(inline.WAL), len(inline.Events))
	}
	if inline.State[1] != inline.State[0] || inline.State[2] != inline.State[0] || inline.Logs[1] != inline.Logs[0] {
		t.Fatalf("replicas diverge: state %x logs %x", inline.State, inline.Logs)
	}

	live := runDriverSchedule(t, true)
	if len(live.Early) != 0 {
		t.Fatalf("goroutine driver released before the sync: %v", live.Early)
	}
	if !reflect.DeepEqual(inline, live) {
		t.Fatalf("the drivers disagree:\ninline    %+v\ngoroutine %+v", inline, live)
	}
}
