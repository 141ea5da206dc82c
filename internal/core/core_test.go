package core

import (
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/kvstore"
	"canopus/internal/lincheck"
	"canopus/internal/lot"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// testCluster spins up a Canopus deployment on the simulator.
type testCluster struct {
	t      *testing.T
	sim    *netsim.Sim
	runner *netsim.Runner
	topo   *netsim.Topology
	tree   *lot.Tree
	nodes  []*Node
	stores []*kvstore.Store

	// mu guards what the nodes' consumers record: a node whose stage runs
	// on a goroutine of its own (GoStage) delivers there.
	mu      sync.Mutex
	replies map[wire.NodeID][]replyRec
	commits map[wire.NodeID][]uint64
	// onCommit, when set, sees every Commit of every initial node after it
	// is recorded.
	onCommit func(id wire.NodeID, c *Commit)
	// trace collects what the nodes traced (clusterOpts.trace) through log,
	// their Callbacks.Log; a node built later, such as a joiner, records
	// there when it is given log.
	trace *recordedTrace
	log   *slog.Logger
}

type replyRec struct {
	req wire.Request
	val []byte
	at  time.Duration
}

type clusterOpts struct {
	racks    int
	perRack  int
	fanout   int
	cfg      Config
	seed     int64
	noClient bool
	// onEvicted, when set, becomes each node's Callbacks.OnEvicted (the
	// eviction tests restart the node through the join protocol from it).
	onEvicted func(tc *testCluster, id wire.NodeID)
	// wan, when non-zero, puts every rack in its own datacenter with this
	// one-way delay between any two.
	wan time.Duration
	// bootAt, when set, is the virtual time each node's Init runs at, so
	// its timers keep that phase, instead of time 0 (see lateBoot).
	bootAt []time.Duration
	// wrap, when set, stands between the runner and each node.
	wrap func(*Node) engine.Machine
	// goStage runs every node's apply stage on a goroutine of its own (the
	// live driver); replies are then recorded without their time.
	goStage bool
	// trace records every node's protocol trace in testCluster.trace.
	trace bool
}

func newTestCluster(t *testing.T, o clusterOpts) *testCluster {
	t.Helper()
	if o.seed == 0 {
		o.seed = 42
	}
	sim := netsim.NewSim()
	topo := netsim.SingleDC(o.racks, o.perRack)
	if o.wan > 0 {
		topo = netsim.MultiDC(o.racks, o.perRack, netsim.UniformWANDelay(o.racks, o.wan))
	}
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), o.seed)

	sls := make([][]wire.NodeID, o.racks)
	for r := 0; r < o.racks; r++ {
		sls[r] = topo.RackMembers(r)
	}
	tree, err := lot.New(lot.Config{SuperLeaves: sls, Fanout: o.fanout})
	if err != nil {
		t.Fatalf("lot.New: %v", err)
	}

	tc := &testCluster{
		t: t, sim: sim, runner: runner, topo: topo, tree: tree,
		replies: make(map[wire.NodeID][]replyRec),
		commits: make(map[wire.NodeID][]uint64),
	}
	if o.trace {
		tc.trace = &recordedTrace{now: sim.Now}
		tc.log = slog.New(traceRecorder{recordedTrace: tc.trace})
	}
	for i := 0; i < topo.NumNodes(); i++ {
		id := wire.NodeID(i)
		cfg := o.cfg
		cfg.Tree = tree
		cfg.Self = id
		st := kvstore.NewLogged()
		cbs := Callbacks{Consumers: []Consumer{ConsumerFunc(func(c *Commit) {
			tc.mu.Lock()
			defer tc.mu.Unlock()
			var at time.Duration
			if !o.goStage {
				at = sim.Now() // the clock is the simulator goroutine's
			}
			for i := range c.Replies {
				tc.replies[id] = append(tc.replies[id], replyRec{req: c.Replies[i], val: c.Vals[i], at: at})
			}
			// The Commit contract: a committed cycle (never 0), above the
			// last one this node delivered.
			var last uint64
			if got := tc.commits[id]; len(got) > 0 {
				last = got[len(got)-1]
			}
			if c.Cycle <= last {
				t.Errorf("node %d delivered cycle %d after cycle %d", id, c.Cycle, last)
			}
			tc.commits[id] = append(tc.commits[id], c.Cycle)
			if tc.onCommit != nil {
				tc.onCommit(id, c)
			}
		})}, Log: tc.log}
		if o.onEvicted != nil {
			cbs.OnEvicted = func() { o.onEvicted(tc, id) }
		}
		node := NewNode(cfg, st, cbs)
		if o.goStage {
			GoStage(node)
			t.Cleanup(node.Close)
		}
		tc.nodes = append(tc.nodes, node)
		tc.stores = append(tc.stores, st)
		var m engine.Machine = node
		if o.wrap != nil {
			m = o.wrap(node)
		}
		if o.bootAt != nil {
			late := &lateBoot{Machine: m}
			m = late
			sim.At(o.bootAt[i], late.boot)
		}
		runner.Register(id, m)
	}
	return tc
}

// lateBoot is a node whose process starts after the simulation does: the
// runner has it from time 0, but Init runs at boot, and what its peers sent
// it earlier is delivered then, as by a sender that kept dialing.
type lateBoot struct {
	engine.Machine
	env   engine.Env
	up    bool
	early []func()
}

func (l *lateBoot) Init(env engine.Env) { l.env = env }

func (l *lateBoot) boot() {
	l.up = true
	l.Machine.Init(l.env)
	for _, deliver := range l.early {
		deliver()
	}
	l.early = nil
}

func (l *lateBoot) Recv(from wire.NodeID, m wire.Message) {
	if !l.up {
		l.early = append(l.early, func() { l.Machine.Recv(from, m) })
		return
	}
	l.Machine.Recv(from, m)
}

// submitAt schedules a client request at a node at a virtual time.
func (tc *testCluster) submitAt(at time.Duration, node wire.NodeID, req wire.Request) {
	tc.sim.At(at, func() { tc.nodes[node].Submit(req) })
}

func (tc *testCluster) run(until time.Duration) { tc.sim.RunUntil(until) }

// requireAgreement asserts every pair of live replicas applied identical
// write sequences.
func (tc *testCluster) requireAgreement() {
	tc.t.Helper()
	var refDigest, refLen uint64
	ref := -1
	for i, st := range tc.stores {
		if !tc.runner.Alive(wire.NodeID(i)) {
			continue
		}
		if ref < 0 {
			ref, refDigest, refLen = i, st.LogDigest(), st.LogLen()
			continue
		}
		if st.LogLen() != refLen || st.LogDigest() != refDigest {
			tc.t.Fatalf("replica divergence: node %d (len %d digest %x) vs node %d (len %d digest %x)",
				i, st.LogLen(), st.LogDigest(), ref, refLen, refDigest)
		}
	}
}

func wr(client, seq, key, val uint64) wire.Request {
	v := make([]byte, 8)
	for i := 0; i < 8; i++ {
		v[i] = byte(val >> (8 * i))
	}
	return wire.Request{Client: client, Seq: seq, Op: wire.OpWrite, Key: key, Val: v}
}

func rd(client, seq, key uint64) wire.Request {
	return wire.Request{Client: client, Seq: seq, Op: wire.OpRead, Key: key}
}

func TestSingleSuperLeafCommit(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3})
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 100, 7))
	tc.submitAt(time.Millisecond, 1, wr(2, 1, 200, 8))
	tc.run(500 * time.Millisecond)

	for i, st := range tc.stores {
		if st.LogLen() != 2 {
			t.Fatalf("node %d applied %d writes, want 2", i, st.LogLen())
		}
	}
	tc.requireAgreement()
	if len(tc.replies[0]) != 1 {
		t.Fatalf("node 0 replies = %d, want 1", len(tc.replies[0]))
	}
}

func TestTwoSuperLeavesTotalOrder(t *testing.T) {
	// The Figure 2 configuration: 6 nodes in 2 super-leaves, height 2.
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	if tc.tree.Height != 2 {
		t.Fatalf("height = %d, want 2", tc.tree.Height)
	}
	// Concurrent writes to distinct keys at several nodes.
	for i := 0; i < 6; i++ {
		tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(100+i), uint64(i)))
	}
	tc.run(time.Second)
	for i, st := range tc.stores {
		if st.LogLen() != 6 {
			t.Fatalf("node %d applied %d writes, want 6", i, st.LogLen())
		}
	}
	tc.requireAgreement()
}

func TestThreeRacksNineNodes(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3})
	for round := 0; round < 5; round++ {
		for i := 0; i < 9; i++ {
			tc.submitAt(time.Duration(round+1)*10*time.Millisecond, wire.NodeID(i),
				wr(uint64(i+1), uint64(round+1), uint64(i*10+round), uint64(round)))
		}
	}
	tc.run(2 * time.Second)
	for i, st := range tc.stores {
		if st.LogLen() != 45 {
			t.Fatalf("node %d applied %d writes, want 45", i, st.LogLen())
		}
	}
	tc.requireAgreement()
}

func TestReadObservesPriorWriteSameNode(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 55, 99))
	tc.submitAt(2*time.Millisecond, 0, rd(1, 2, 55))
	tc.run(time.Second)

	reps := tc.replies[0]
	if len(reps) != 2 {
		t.Fatalf("replies = %d, want 2", len(reps))
	}
	// FIFO: write reply before read reply.
	if reps[0].req.Op != wire.OpWrite || reps[1].req.Op != wire.OpRead {
		t.Fatalf("reply order violated FIFO: %v then %v", reps[0].req.Op, reps[1].req.Op)
	}
	if got := reps[1].val; len(got) != 8 || got[0] != 99 {
		t.Fatalf("read returned %v, want value 99", got)
	}
}

func TestReadDoesNotSeeOwnLaterWrite(t *testing.T) {
	// A read submitted before a write by the same client must not
	// observe that write, even when both land in the same request set.
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 55, 1))
	// Later: read then write in quick succession (same cycle's set).
	tc.submitAt(50*time.Millisecond, 0, rd(1, 2, 55))
	tc.submitAt(50*time.Millisecond+time.Microsecond, 0, wr(1, 3, 55, 2))
	tc.run(time.Second)

	reps := tc.replies[0]
	if len(reps) != 3 {
		t.Fatalf("replies = %d, want 3", len(reps))
	}
	readVal := reps[1].val
	if reps[1].req.Op != wire.OpRead {
		t.Fatalf("second reply is %v, want read", reps[1].req.Op)
	}
	if len(readVal) != 8 || readVal[0] != 1 {
		t.Fatalf("read saw %v, want the first write (1), not the later one", readVal)
	}
	tc.requireAgreement()
}

// TestLinearizableHistory replays a mixed read/write run through the
// Wing-Gong checker: the §5 construction must produce linearizable
// histories even though reads never travel on the wire.
func TestLinearizableHistory(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	type inflight struct {
		invoke time.Duration
		kind   lincheck.OpKind
		key    uint64
		wrote  uint64
	}
	pending := make(map[[2]uint64]inflight) // (client,seq) -> op
	var history []lincheck.Op
	tc.onCommit = func(_ wire.NodeID, c *Commit) {
		for i := range c.Replies {
			k := [2]uint64{c.Replies[i].Client, c.Replies[i].Seq}
			op, ok := pending[k]
			if !ok {
				continue
			}
			delete(pending, k)
			rec := lincheck.Op{
				Kind: op.kind, Key: op.key,
				Invoke: int64(op.invoke), Return: int64(tc.sim.Now()),
			}
			if op.kind == lincheck.OpWrite {
				rec.Value = op.wrote
			} else if val := c.Vals[i]; len(val) == 8 {
				rec.Value = uint64(val[0])
			}
			history = append(history, rec)
		}
	}
	submit := func(at time.Duration, node wire.NodeID, req wire.Request, kind lincheck.OpKind, wrote uint64) {
		tc.sim.At(at, func() {
			pending[[2]uint64{req.Client, req.Seq}] = inflight{invoke: at, kind: kind, key: req.Key, wrote: wrote}
			tc.nodes[node].Submit(req)
		})
	}
	// Clients at different nodes interleave writes and reads on two keys.
	seq := map[uint64]uint64{}
	next := func(c uint64) uint64 { seq[c]++; return seq[c] }
	for step := 0; step < 12; step++ {
		at := time.Duration(step+1) * 7 * time.Millisecond
		switch step % 4 {
		case 0:
			submit(at, 0, wr(1, next(1), 10, uint64(step+1)), lincheck.OpWrite, uint64(step+1))
		case 1:
			submit(at, 3, rd(2, next(2), 10), lincheck.OpRead, 0)
		case 2:
			submit(at, 5, wr(3, next(3), 11, uint64(step+1)), lincheck.OpWrite, uint64(step+1))
		case 3:
			submit(at, 1, rd(4, next(4), 11), lincheck.OpRead, 0)
		}
	}
	tc.run(3 * time.Second)
	if len(history) != 12 {
		t.Fatalf("history has %d ops, want 12", len(history))
	}
	if !lincheck.Check(history) {
		t.Fatalf("history is not linearizable: %+v", history)
	}
}

func TestSelfSynchronization(t *testing.T) {
	// Only one node receives a request; all others must be dragged into
	// the cycle by proposals and pushed states (§4.4).
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3})
	tc.submitAt(time.Millisecond, 4, wr(9, 1, 1, 1))
	tc.run(time.Second)
	for i := range tc.nodes {
		if tc.nodes[i].Committed() == 0 {
			t.Fatalf("node %d never committed a cycle", i)
		}
	}
	tc.requireAgreement()
}

func TestFIFOPerClientAcrossCycles(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	const n = 20
	for s := 1; s <= n; s++ {
		tc.submitAt(time.Duration(s)*3*time.Millisecond, 2, wr(7, uint64(s), 42, uint64(s)))
	}
	tc.run(2 * time.Second)
	reps := tc.replies[2]
	if len(reps) != n {
		t.Fatalf("replies = %d, want %d", len(reps), n)
	}
	for i := 1; i < len(reps); i++ {
		if reps[i].req.Seq <= reps[i-1].req.Seq {
			t.Fatalf("FIFO violated at reply %d: seq %d after %d", i, reps[i].req.Seq, reps[i-1].req.Seq)
		}
	}
	// Final value must be the last write.
	for i, st := range tc.stores {
		v := st.Read(42)
		if len(v) != 8 || v[0] != n {
			t.Fatalf("node %d: key 42 = %v, want %d", i, v, n)
		}
	}
}

func TestPipelinedThroughput(t *testing.T) {
	cfg := Config{CycleInterval: 5 * time.Millisecond, MaxInFlight: 16}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg})
	var seq uint64
	for ms := 1; ms <= 100; ms++ {
		for i := 0; i < 6; i++ {
			seq++
			tc.submitAt(time.Duration(ms)*time.Millisecond, wire.NodeID(i),
				wr(uint64(100+i), seq, uint64(seq%64), seq))
		}
	}
	tc.run(3 * time.Second)
	total := uint64(600)
	for i, st := range tc.stores {
		if st.LogLen() != total {
			t.Fatalf("node %d applied %d writes, want %d", i, st.LogLen(), total)
		}
	}
	tc.requireAgreement()
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, seed: 7})
		for i := 0; i < 6; i++ {
			tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(i), uint64(i)))
		}
		tc.run(time.Second)
		return tc.stores[0].LogDigest(), tc.sim.Steps()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("non-deterministic: digest %x/%x steps %d/%d", d1, d2, s1, s2)
	}
}

func TestHeightThreeTree(t *testing.T) {
	// 4 super-leaves with fanout 2 -> height 3: exercises rounds beyond 2.
	tc := newTestCluster(t, clusterOpts{racks: 4, perRack: 3, fanout: 2})
	if tc.tree.Height != 3 {
		t.Fatalf("height = %d, want 3", tc.tree.Height)
	}
	for i := 0; i < 12; i++ {
		tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(i), uint64(i)))
	}
	tc.run(2 * time.Second)
	for i, st := range tc.stores {
		if st.LogLen() != 12 {
			t.Fatalf("node %d applied %d writes, want 12", i, st.LogLen())
		}
	}
	tc.requireAgreement()
}

func TestNodeCrashMembershipUpdate(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 1, 1))
	// Crash node 5 (super-leaf 1) after the first cycle settles.
	tc.sim.At(300*time.Millisecond, func() { tc.runner.Crash(5) })
	// Traffic keeps flowing afterwards.
	for s := 1; s <= 10; s++ {
		tc.submitAt(time.Duration(600+s*10)*time.Millisecond, 1, wr(2, uint64(s), uint64(s), uint64(s)))
	}
	tc.run(3 * time.Second)
	// All survivors agree and committed the post-crash writes.
	tc.requireAgreement()
	if tc.stores[0].LogLen() != 11 {
		t.Fatalf("applied %d writes, want 11", tc.stores[0].LogLen())
	}
	// The survivors' views exclude node 5.
	for i := 0; i < 5; i++ {
		if tc.nodes[i].View().Alive(5) {
			t.Fatalf("node %d still considers node 5 alive", i)
		}
	}
}

func TestSuperLeafFailureStalls(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 1, 1))
	tc.run(300 * time.Millisecond)
	// Kill a majority of super-leaf 1 (nodes 3,4 of 3..5).
	tc.runner.Crash(3)
	tc.runner.Crash(4)
	committedBefore := tc.nodes[0].Committed()
	// New work cannot commit: super-leaf 1's state is unreachable.
	tc.submitAt(500*time.Millisecond, 0, wr(1, 2, 2, 2))
	tc.run(3 * time.Second)
	if got := tc.nodes[0].Committed(); got > committedBefore+1 {
		// One in-flight cycle may complete with pre-crash state; beyond
		// that the process must stall (§6 liveness).
		t.Fatalf("committed advanced to %d despite super-leaf failure (was %d)", got, committedBefore)
	}
	if tc.stores[0].LogLen() >= 2 {
		t.Fatalf("post-failure write committed; stall semantics violated")
	}
}

func TestCrashedNodeRejoins(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3})
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 10, 1))
	tc.sim.At(300*time.Millisecond, func() { tc.runner.Crash(5) })
	tc.submitAt(600*time.Millisecond, 0, wr(1, 2, 11, 2))
	// Restart node 5 with a joiner at 1.5s.
	tc.sim.At(1500*time.Millisecond, func() {
		cfg := Config{Tree: tc.tree, Self: 5}
		st := kvstore.NewLogged()
		tc.stores[5] = st
		joiner := NewJoiner(cfg, st, Callbacks{})
		tc.nodes[5] = joiner
		tc.runner.Restart(5, joiner)
	})
	// Post-rejoin traffic must reach node 5 too.
	for s := 3; s <= 8; s++ {
		tc.submitAt(time.Duration(2500+s*20)*time.Millisecond, 0, wr(1, uint64(s), uint64(10+s), uint64(s)))
	}
	tc.run(6 * time.Second)

	if tc.nodes[5].Stalled() {
		t.Fatal("rejoined node is stalled")
	}
	if tc.nodes[5].Committed() == 0 {
		t.Fatal("rejoined node never committed")
	}
	want := tc.stores[0].StateDigest()
	if got := tc.stores[5].StateDigest(); got != want {
		t.Fatalf("rejoined state digest %x != %x", got, want)
	}
}

// TestSwitchBroadcastVariant: with the leaf's sequencer over switch
// multicast every replica applies every write and agrees.
func TestSwitchBroadcastVariant(t *testing.T) {
	cfg := Config{Broadcast: BroadcastSwitch}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg})
	for i := 0; i < 6; i++ {
		tc.submitAt(time.Millisecond, wire.NodeID(i), wr(uint64(i+1), 1, uint64(i), uint64(i)))
	}
	tc.run(time.Second)
	for i, st := range tc.stores {
		if st.LogLen() != 6 {
			t.Fatalf("node %d applied %d writes, want 6", i, st.LogLen())
		}
	}
	tc.requireAgreement()
}

func TestCommitsArriveInCycleOrder(t *testing.T) {
	cfg := Config{CycleInterval: 5 * time.Millisecond, MaxInFlight: 8}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg})
	for s := 1; s <= 50; s++ {
		tc.submitAt(time.Duration(s)*2*time.Millisecond, 0, wr(1, uint64(s), uint64(s), uint64(s)))
	}
	tc.run(2 * time.Second)
	for id, cycles := range tc.commits {
		for i := 1; i < len(cycles); i++ {
			if cycles[i] != cycles[i-1]+1 {
				t.Fatalf("node %v commit order broken: %d after %d", id, cycles[i], cycles[i-1])
			}
		}
	}
}

func ExampleNode_cycle() {
	// The Figure 2 walkthrough: six nodes A..F in two super-leaves.
	sim := netsim.NewSim()
	topo := netsim.SingleDC(2, 3)
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), 1)
	tree, _ := lot.New(lot.Config{SuperLeaves: [][]wire.NodeID{
		topo.RackMembers(0), topo.RackMembers(1),
	}})
	nodes := make([]*Node, 6)
	for i := 0; i < 6; i++ {
		nodes[i] = NewNode(Config{Tree: tree, Self: wire.NodeID(i)}, kvstore.New(), Callbacks{})
		runner.Register(wire.NodeID(i), nodes[i])
	}
	// Nodes A (0) and B (1) receive requests R_A and R_B.
	sim.At(time.Millisecond, func() {
		nodes[0].Submit(wire.Request{Client: 1, Seq: 1, Op: wire.OpWrite, Key: 1, Val: []byte{1}})
		nodes[1].Submit(wire.Request{Client: 2, Seq: 1, Op: wire.OpWrite, Key: 2, Val: []byte{2}})
	})
	sim.RunUntil(time.Second)
	fmt.Printf("all nodes committed cycle %d\n", nodes[5].Committed())
	// Output: all nodes committed cycle 1
}
