package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"canopus/client"
	"canopus/internal/clientio"
	"canopus/internal/core"
	"canopus/internal/engine"
	"canopus/internal/kvstore"
	"canopus/internal/lincheck"
	"canopus/internal/livecluster"
	"canopus/internal/lot"
	"canopus/internal/metrics"
	"canopus/internal/netsim"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

// Chaos experiments: a Canopus deployment driven by explicit
// (materialized) client requests while a netsim.FaultPlan injects
// crashes, partitions, latency spikes and packet loss. Unlike the fluid
// workload used for throughput figures, every operation here is a real
// keyed read or write whose invocation/response interval is recorded, so
// the committed history of each run is checked for linearizability with
// internal/lincheck. Each client is a canopus/client machine — sessions,
// retries, failover — talking to its node's client-port rules over a
// simulated link (simlink.go). Runs are bit-identically replayable: the
// same ChaosSpec always yields the same commit log, state digest and
// event count.

// ChaosSpec describes one fault-injection experiment.
type ChaosSpec struct {
	// Topology (same conventions as Spec).
	MultiDC  bool
	Groups   int
	PerGroup int
	WANRTT   [][]time.Duration

	// Node carries per-node protocol knobs; Tree and Self are filled per
	// node. Zero TickInterval defaults to 1ms so broadcast-layer failure
	// detection (25×4×Tick) settles within a few hundred milliseconds.
	Node core.Config

	// Faults is the deterministic fault schedule. Crashed nodes with a
	// RestartAt come back with empty state through the join protocol.
	Faults netsim.FaultPlan
	// FaultAt anchors the recovery-time metric (typically the principal
	// crash or partition time). Zero disables the metric.
	FaultAt time.Duration

	// Closed-loop client load.
	Clients    int             // clients per node (default 2)
	Keys       uint64          // key space size (default 128)
	WriteRatio float64         // default 0.5
	OpTimeout  time.Duration   // abandon an unacknowledged op after this (default 1s)
	Resets     []time.Duration // instants at which every client link is reset; the nodes keep running

	// Durable gives every node a storage engine (internal/wal) over a
	// per-node in-memory disk that survives in-sim restarts: crashed
	// nodes with a RestartAt come back by recovering their snapshot + WAL
	// instead of re-entering through the join protocol. One whose Leave
	// its peers committed meanwhile is told so and rejoins (onEvicted).
	Durable bool
	// SnapshotCycles is the durable snapshot cadence (wal default when
	// 0); small values make restarts recover snapshot + WAL tail rather
	// than pure replay.
	SnapshotCycles int

	Seed     int64
	Duration time.Duration // virtual run length (default 5s)
}

func (s *ChaosSpec) fill() {
	if s.Groups == 0 {
		s.Groups = 2
	}
	if s.PerGroup == 0 {
		s.PerGroup = 3
	}
	if s.Node.TickInterval == 0 {
		s.Node.TickInterval = time.Millisecond
	}
	if s.Clients == 0 {
		s.Clients = 2
	}
	if s.Keys == 0 {
		s.Keys = 128
	}
	if s.WriteRatio == 0 {
		s.WriteRatio = 0.5
	}
	if s.OpTimeout == 0 {
		s.OpTimeout = time.Second
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Duration == 0 {
		s.Duration = 5 * time.Second
	}
}

const (
	// thinkTime is the mean pause between a closed-loop client's ops.
	thinkTime = 25 * time.Millisecond
	// evictRestartDelay is how long a node the committed view dropped
	// (its leaf-mates cut it, or its leaf was resolved dead) waits after
	// learning it before restarting as a protocol-level joiner, modeling
	// an operator bouncing the deposed node.
	evictRestartDelay = 200 * time.Millisecond
)

// ChaosResult is one chaos run's outcome.
type ChaosResult struct {
	Linearizable bool
	History      []lincheck.Op // completed ops plus open-interval writes

	OpsDone   int // acknowledged operations
	OpsFailed int // rejected or abandoned operations

	Commits      uint64 // cycles committed at the reference node
	CommitDigest uint64 // order-sensitive digest of the reference commit log
	StateDigest  uint64 // reference node's final store contents

	Availability float64       // fraction of 100ms windows with ≥1 commit
	LongestStall time.Duration // longest commit-free span
	Recovery     time.Duration // first commit at/after FaultAt, minus FaultAt
	Recovered    bool

	// Windows is the per-window commit count over [0, Duration) at
	// WindowSize granularity — the availability timeline. Tests assert
	// outage shape against it: commits before the fault, a bounded gap
	// while the dead leaf times out and is evicted, commits after.
	Windows    []int
	WindowSize time.Duration

	// Evictions and Readmissions total the leaf evictions resolved and
	// dead leaves readmitted, summed over replicas alive at the end of
	// the run (LeafTimeout runs only; zero otherwise).
	Evictions    uint64
	Readmissions uint64

	Events uint64 // simulation events (replay-identity indicator)

	// Replicas is each replica's final commit position and digests
	// (after the drain window). Replicas at the same committed cycle
	// must agree on every digest — the replica-equality invariant the
	// store has to preserve; once every fault heals, all live replicas
	// stand at the reference's cycle.
	Replicas []ReplicaState
}

// ReplicaState is one replica's post-run position and digests.
type ReplicaState struct {
	Node      wire.NodeID
	Alive     bool // running at the end of the run
	Committed uint64
	// Restarted reports the replica was replaced at least once during
	// the run — by the fault plan (crash/power-loss restart) or by the
	// eviction-restart path. Its apply log still compares with every
	// other replica's at the same cycle: a join image and a disk snapshot
	// both carry the log chains.
	Restarted   bool
	LogLen      uint64
	LogDigest   uint64
	StateDigest uint64
}

// perKeyCap keeps per-key histories comfortably inside lincheck's 62-op
// window (closed-loop clients make same-key ops mostly sequential, so
// the check stays cheap).
const perKeyCap = 55

// worker is one closed-loop client of the workload: a client machine
// homed on one node, and the draws of its think times, keys and kinds.
type worker struct {
	id  uint64
	cl  *client.Client
	rng *rand.Rand
	seq uint64 // operations issued
}

// chaosRun carries the mutable state of one experiment.
type chaosRun struct {
	spec    ChaosSpec
	sim     *netsim.Sim
	runner  *netsim.Runner
	tree    *lot.Tree
	nodes   []*core.Node
	stores  []*kvstore.Store
	disks   []*wal.MemFS // per-node durable disks (Durable only)
	ports   []*livecluster.ClientPort
	links   []*simLink
	workers []*worker

	history  []lincheck.Op
	keyCount map[uint64]uint64
	done     int
	failed   int

	ref          wire.NodeID
	restarted    map[wire.NodeID]bool
	avail        metrics.Availability
	commits      uint64
	commitDigest uint64
}

// RunChaos executes one chaos experiment.
func RunChaos(spec ChaosSpec) ChaosResult {
	res, _ := runChaosInner(spec)
	return res
}

// runChaosInner also returns the run's internals for test inspection.
func runChaosInner(spec ChaosSpec) (ChaosResult, *chaosRun) {
	spec.fill()
	r := &chaosRun{spec: spec, keyCount: make(map[uint64]uint64), restarted: make(map[wire.NodeID]bool)}
	r.sim = netsim.NewSim()

	topo := buildTopo(Spec{MultiDC: spec.MultiDC, Groups: spec.Groups, PerGroup: spec.PerGroup, WANRTT: spec.WANRTT})
	r.runner = netsim.NewRunner(r.sim, topo, netsim.DefaultCosts(), spec.Seed)

	sls := make([][]wire.NodeID, spec.Groups)
	for g := 0; g < spec.Groups; g++ {
		sls[g] = topo.RackMembers(g)
	}
	tree, err := lot.New(lot.Config{SuperLeaves: sls})
	if err != nil {
		panic(err)
	}
	r.tree = tree

	n := topo.NumNodes()
	r.ref = referenceNode(n, spec.Faults)
	r.nodes = make([]*core.Node, n)
	r.ports = make([]*livecluster.ClientPort, n)
	r.stores = make([]*kvstore.Store, n)
	if spec.Durable {
		r.disks = make([]*wal.MemFS, n)
		for i := range r.disks {
			r.disks[i] = wal.NewMemFS()
		}
	}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		if spec.Durable {
			r.runner.Register(id, r.newDurableNode(id))
		} else {
			r.runner.Register(id, r.bind(id, core.NewNode(r.nodeConfig(id), r.newStore(id), r.callbacks(id))))
		}
	}

	r.runner.InstallFaults(spec.Faults, func(id wire.NodeID) engine.Machine {
		r.restarted[id] = true
		if spec.Durable {
			// Power loss: the replacement recovers from its own disk —
			// snapshot restore plus WAL replay — and closes any remaining
			// gap to its peers through root catch-up.
			return r.newDurableNode(id)
		}
		// State loss: the replacement machine starts from an empty store
		// and recovers through the §4.6 join protocol's state transfer.
		return r.bind(id, core.NewJoiner(r.nodeConfig(id), r.newStore(id), r.callbacks(id)))
	})
	// A crashed node's client connections reset, as a dead process's do.
	for _, cf := range spec.Faults.Crashes {
		r.sim.At(cf.At, func() { r.resetLinks(int(cf.Node)) })
	}
	for _, at := range spec.Resets {
		r.sim.At(at, func() { r.resetLinks(-1) })
	}

	// Closed-loop clients, spread across nodes: each lists its home node
	// first, then the rest (clientEnv.Dial maps an endpoint index to a node).
	endpoints := make([]string, n)
	for c := 0; c < spec.Clients*n; c++ {
		env := &clientEnv{r: r, rng: rand.New(rand.NewSource(spec.Seed*7919 + int64(c))), home: c % n}
		cl := clientio.NewClient(endpoints, env).(*client.Client)
		w := &worker{id: uint64(c + 1), cl: cl, rng: rand.New(rand.NewSource(spec.Seed + int64(c)*104729 + 13))}
		r.workers = append(r.workers, w)
		// Stagger first invocations inside the first think window.
		r.schedule(w, time.Duration(w.rng.Int63n(int64(thinkTime)))+time.Millisecond)
	}

	// Run past Duration so in-flight commits drain and every pending
	// op's timeout fires: unacknowledged writes are recorded as open
	// intervals, so by the time RunUntil returns the history is complete.
	r.sim.RunUntil(spec.Duration + 2*spec.OpTimeout)

	res := ChaosResult{
		Linearizable: lincheck.Check(r.history),
		History:      r.history,
		OpsDone:      r.done,
		OpsFailed:    r.failed,
		Commits:      r.commits,
		CommitDigest: r.commitDigest,
		StateDigest:  r.stores[r.ref].StateDigest(),
		Availability: r.avail.Fraction(0, spec.Duration),
		LongestStall: r.avail.LongestGap(0, spec.Duration),
		Windows:      r.avail.WindowCounts(0, spec.Duration),
		WindowSize:   100 * time.Millisecond,
		Events:       r.sim.Steps(),
	}
	for i, node := range r.nodes {
		if !r.runner.Alive(wire.NodeID(i)) {
			continue
		}
		res.Evictions += node.LeafEvictions()
		res.Readmissions += node.LeafReadmissions()
	}
	for i, node := range r.nodes {
		res.Replicas = append(res.Replicas, ReplicaState{
			Node:        wire.NodeID(i),
			Alive:       r.runner.Alive(wire.NodeID(i)),
			Committed:   node.Committed(),
			Restarted:   r.restarted[wire.NodeID(i)],
			LogLen:      r.stores[i].LogLen(),
			LogDigest:   r.stores[i].LogDigest(),
			StateDigest: r.stores[i].StateDigest(),
		})
	}
	if spec.FaultAt > 0 {
		res.Recovery, res.Recovered = r.avail.RecoveryAfter(spec.FaultAt)
	}
	return res, r
}

// referenceNode picks the lowest node the plan never crashes; its commit
// log and store anchor the run's digests and availability. When the plan
// crashes every node (a full-cluster power loss), the anchor is the
// lowest node it restarts — the one that finishes the run alive.
func referenceNode(n int, plan netsim.FaultPlan) wire.NodeID {
	for i := 0; i < n; i++ {
		crashed := false
		for _, c := range plan.Crashes {
			if int(c.Node) == i {
				crashed = true
				break
			}
		}
		if !crashed {
			return wire.NodeID(i)
		}
	}
	for i := 0; i < n; i++ {
		for _, c := range plan.Crashes {
			if int(c.Node) == i && c.RestartAt > 0 {
				return wire.NodeID(i)
			}
		}
	}
	panic("chaos: fault plan crashes every node and restarts none; no reference replica")
}

// newDurableNode builds node id's store and storage engine over its
// persistent in-sim disk, recovering whatever an earlier incarnation made
// durable — used at boot (empty disk: recovery is a no-op) and by the
// restart factory after a power loss. The simulator drains the apply
// stage inline, so every cycle appends and fsyncs inside its machine turn
// and the durable watermark equals the committed watermark at any crash
// instant.
func (r *chaosRun) newDurableNode(id wire.NodeID) *core.Node {
	st := r.newStore(id)
	mgr, err := wal.Open(wal.Options{FS: r.disks[id], Store: st, SnapshotCycles: r.spec.SnapshotCycles})
	if err != nil {
		panic(fmt.Sprintf("chaos: node %d durability: %v", id, err))
	}
	cfg := r.nodeConfig(id)
	cfg.Durability = mgr
	node := r.bind(id, core.NewNode(cfg, st, r.callbacks(id)))
	if _, err := mgr.Recover(node); err != nil {
		panic(fmt.Sprintf("chaos: node %d recovery: %v", id, err))
	}
	return node
}

func (r *chaosRun) nodeConfig(id wire.NodeID) core.Config {
	cfg := r.spec.Node
	cfg.Tree = r.tree
	cfg.Self = id
	return cfg
}

func (r *chaosRun) newStore(id wire.NodeID) *kvstore.Store {
	st := kvstore.NewLogged()
	r.stores[id] = st
	return st
}

// callbacks builds the consumers of a new incarnation of node id: a fresh
// client port, as a restarted server has, and the run's own recorder.
func (r *chaosRun) callbacks(id wire.NodeID) core.Callbacks {
	r.ports[id] = livecluster.NewPort(id, nil)
	return core.Callbacks{
		Consumers: []core.Consumer{r.ports[id], core.ConsumerFunc(func(c *core.Commit) { r.committed(id, c) })},
		OnEvicted: func() { r.onEvicted(id) },
	}
}

// bind makes node the serving incarnation of id, behind the port its
// callbacks built.
func (r *chaosRun) bind(id wire.NodeID, node *core.Node) *core.Node {
	r.nodes[id] = node
	r.ports[id].SetNode(node, nil)
	return node
}

// committed records, at the reference node, each committed cycle into
// the commit digest and the availability trace.
func (r *chaosRun) committed(id wire.NodeID, c *core.Commit) {
	if id == r.ref {
		r.commits = c.Cycle
		r.avail.Record(r.sim.Now())
		r.commitDigest = digestCommit(r.commitDigest, c.Cycle, c.Order)
	}
}

// onEvicted handles node id learning that the committed view dropped it
// (an Evicted notice, or its leaf's cut of it): it can never make
// progress in this incarnation. After evictRestartDelay the harness
// bounces it into a fresh joiner, Durable runs included: the committed
// Leave voids its disk's claim, so it re-enters through the §4.6 join
// protocol without it.
func (r *chaosRun) onEvicted(id wire.NodeID) {
	old := r.nodes[id]
	r.sim.After(evictRestartDelay, func() {
		if !r.runner.Alive(id) || r.nodes[id] != old {
			return // crashed meanwhile, or a newer incarnation took over
		}
		r.runner.Crash(id)
		r.resetLinks(int(id))
		r.restarted[id] = true
		r.runner.Restart(id, r.bind(id, core.NewJoiner(r.nodeConfig(id), r.newStore(id), r.callbacks(id))))
	})
}

// digestCommit folds one committed cycle into an order-sensitive digest.
func digestCommit(prev uint64, cycle uint64, order []*wire.Batch) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(prev)
	put(cycle)
	for _, b := range order {
		put(uint64(uint32(b.Origin)))
		put(uint64(b.NumRead)<<32 | uint64(b.NumWrite))
		for i := range b.Reqs {
			req := &b.Reqs[i]
			put(req.Client)
			put(req.Seq)
			put(req.Key)
			h.Write(req.Val)
		}
	}
	return h.Sum64()
}

// schedule queues w's next operation at now+delay.
func (r *chaosRun) schedule(w *worker, delay time.Duration) {
	r.sim.After(delay, func() { r.issue(w) })
}

// issue hands w's next operation to its client and records its
// invocation, and its outcome when the client completes it or OpTimeout
// passes, whichever is first: a write that failed or timed out stays in
// the history with an open interval (it may still commit later), and
// such a read constrains nothing and is dropped.
func (r *chaosRun) issue(w *worker) {
	now := r.sim.Now()
	if now > r.spec.Duration {
		return
	}
	key, ok := r.pickKey(w)
	if !ok {
		// Every key is at lincheck's per-key budget: the run has issued
		// all the checkable load it can. Park this client for good
		// rather than overflow a history past the checker's hard limit.
		return
	}
	w.seq++
	op := lincheck.Op{Kind: lincheck.OpRead, Key: key, Invoke: int64(now)}
	cop := client.Op{Kind: client.OpGet, Key: key}
	if w.rng.Float64() < r.spec.WriteRatio {
		op.Kind, op.Value = lincheck.OpWrite, w.id<<20|w.seq
		cop = client.Op{Kind: client.OpPut, Key: key, Val: binary.LittleEndian.AppendUint64(nil, op.Value)}
	}
	r.keyCount[key]++
	settled := false
	settle := func(res client.Result, err error) {
		if settled {
			return
		}
		settled = true
		switch {
		case err == nil:
			op.Return = int64(r.sim.Now())
			if op.Kind == lincheck.OpRead && len(res.Val) >= 8 {
				op.Value = binary.LittleEndian.Uint64(res.Val)
			}
			r.history = append(r.history, op)
			r.done++
		case op.Kind == lincheck.OpWrite:
			op.Return = math.MaxInt64
			r.history = append(r.history, op)
			fallthrough
		default:
			r.failed++
		}
		r.schedule(w, r.think(w))
	}
	w.cl.Async(cop, settle)
	r.sim.After(r.spec.OpTimeout, func() { settle(client.Result{}, client.ErrTimeout) })
}

func (r *chaosRun) think(w *worker) time.Duration {
	return time.Duration(w.rng.Int63n(int64(2*thinkTime))) + time.Millisecond
}

// pickKey draws a key, steering away from keys whose history is near
// lincheck's per-key search limit. ok is false once every key is
// saturated — lincheck.CheckKey panics beyond 62 ops on one key, so the
// driver must stop issuing rather than overflow (long Durations against
// a small Keys space hit this; size Keys ≥ expected-ops/55 to avoid
// starving the tail of a run).
func (r *chaosRun) pickKey(w *worker) (uint64, bool) {
	key := uint64(w.rng.Int63n(int64(r.spec.Keys)))
	for i := uint64(0); i < r.spec.Keys; i++ {
		k := (key + i) % r.spec.Keys
		if r.keyCount[k] < perKeyCap {
			return k, true
		}
	}
	return 0, false
}

// String renders a compact result line for logs and reports.
func (r ChaosResult) String() string {
	lin := "LINEARIZABLE"
	if !r.Linearizable {
		lin = "VIOLATION"
	}
	rec := "n/a"
	if r.Recovered {
		rec = r.Recovery.Round(time.Millisecond).String()
	}
	s := fmt.Sprintf("%s ops=%d failed=%d commits=%d avail=%.0f%% stall=%v recovery=%s",
		lin, r.OpsDone, r.OpsFailed, r.Commits, 100*r.Availability,
		r.LongestStall.Round(time.Millisecond), rec)
	if r.Evictions > 0 || r.Readmissions > 0 {
		s += fmt.Sprintf(" evictions=%d readmissions=%d", r.Evictions, r.Readmissions)
	}
	return s
}
