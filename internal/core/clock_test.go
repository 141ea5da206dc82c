package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/kvstore"
	"canopus/internal/metrics"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// When a cycle starts (docs/ARCHITECTURE.md step 4): self-clocked starts
// paced at half the interval and owed by a one-shot timer, and a cycle
// timer that pipelines only cycles that outlive the interval. Virtual
// time, so the instants are exact up to the simulator's CPU charges.

// timerQuantum bounds how late the simulator runs a timer's handler: its
// own CPU charge and whatever the node's CPU was still busy with.
const timerQuantum = 20 * time.Microsecond

// starts returns the recorded cycle starts, in time order.
func starts(evs []traceEvent) []traceEvent {
	var out []traceEvent
	for _, e := range evs {
		if e.event == "start" {
			out = append(out, e)
		}
	}
	return out
}

// firstStarts returns, per cycle, the first start among the nodes keep
// admits.
func firstStarts(evs []traceEvent, keep func(wire.NodeID) bool) map[uint64]traceEvent {
	out := make(map[uint64]traceEvent)
	for _, e := range starts(evs) {
		if _, seen := out[e.cycle]; !seen && keep(e.self) {
			out[e.cycle] = e
		}
	}
	return out
}

func anyNode(wire.NodeID) bool { return true }

// load submits one write every gap at each of the nodes, from from until
// until, and returns when each was submitted, by sequence number.
func (tc *testCluster) load(nodes []wire.NodeID, from, until, gap time.Duration) map[uint64]time.Duration {
	submitted := make(map[uint64]time.Duration)
	seq := uint64(0)
	for at := from; at < until; at += gap {
		for _, id := range nodes {
			seq++
			submitted[seq] = at
			tc.submitAt(at, id, wr(uint64(id)+1, seq, seq%512, seq))
		}
	}
	return submitted
}

// medianLatency is the median submit-to-reply time of the requests
// submitted in [from, until).
func (tc *testCluster) medianLatency(submitted map[uint64]time.Duration, from, until time.Duration) time.Duration {
	var lat []time.Duration
	for _, reps := range tc.replies {
		for _, r := range reps {
			if at := submitted[r.req.Seq]; at >= from && at < until {
				lat = append(lat, r.at-at)
			}
		}
	}
	if len(lat) == 0 {
		tc.t.Fatal("no request of the measured window was answered")
	}
	slices.Sort(lat)
	return lat[len(lat)/2]
}

// paceTimers counts the pace timers a cluster's nodes have outstanding.
type paceTimers struct {
	outstanding map[wire.NodeID]int
	armed, most int
}

type paceCountingNode struct {
	*Node
	pt *paceTimers
}

type paceCountingEnv struct {
	engine.Env
	pt *paceTimers
}

func (m paceCountingNode) Init(env engine.Env) { m.Node.Init(paceCountingEnv{env, m.pt}) }

func (m paceCountingNode) Timer(tag engine.TimerTag) {
	if engine.TagKind(tag) == tagPace {
		m.pt.outstanding[m.Node.cfg.Self]--
	}
	m.Node.Timer(tag)
}

func (e paceCountingEnv) After(d time.Duration, tag engine.TimerTag) {
	if engine.TagKind(tag) == tagPace {
		e.pt.armed++
		e.pt.outstanding[e.ID()]++
		e.pt.most = max(e.pt.most, e.pt.outstanding[e.ID()])
	}
	e.Env.After(d, tag)
}

func countPaceTimers() (*paceTimers, func(*Node) engine.Machine) {
	pt := &paceTimers{outstanding: make(map[wire.NodeID]int)}
	return pt, func(n *Node) engine.Machine { return paceCountingNode{n, pt} }
}

const (
	lanInterval = 2 * time.Millisecond
	lanPace     = lanInterval / 2 // half the interval, whatever paceDivisor says
)

var lanClock = Config{CycleInterval: lanInterval, TickInterval: lanInterval}

// (a) A request at an idle leaf starts its cycle in the same turn.
// Mutation: afterSubmit without startSelfClocked starts it at the next
// tick, 12 ms.
func TestClockRequestOnIdleLeafStartsAtOnce(t *testing.T) {
	const t0 = 10*time.Millisecond + 300*time.Microsecond
	tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3, cfg: lanClock, trace: true})
	evs := &tc.trace.evs
	tc.submitAt(t0, 1, wr(1, 1, 7, 7))
	tc.run(50 * time.Millisecond)
	tc.requireAgreement()
	st := starts(*evs)
	if len(st) != 3 {
		t.Fatalf("%d starts, want one per node", len(st))
	}
	if st[0].self != 1 || st[0].at != t0 || st[0].detail != "request" {
		t.Fatalf("first start: node %v at %v, cause %s; want node 1 at %v, cause request", st[0].self, st[0].at, st[0].detail, t0)
	}
	for _, e := range st[1:] {
		if e.detail != "peer" || e.at > t0+100*time.Microsecond {
			t.Fatalf("node %v started at %v, cause %s; want on node 1's proposal", e.self, e.at, e.detail)
		}
	}
}

// (b) Requests that arrive less than a pace after a start are proposed a
// pace after that start, by the one pace timer — whether they arrived while
// the cycle was in flight (the commit owes the start) or after it (the
// request does). The parent proposes them at the next tick, 12 ms.
func TestClockRefusedStartIsOwedByOnePaceTimer(t *testing.T) {
	const t0 = 10*time.Millisecond + 300*time.Microsecond
	for _, later := range [][]time.Duration{
		{50 * time.Microsecond},  // cycle 1 in flight
		{700 * time.Microsecond}, // idle again
		{50 * time.Microsecond, 600 * time.Microsecond, 800 * time.Microsecond}, // both, several
	} {
		t.Run(fmt.Sprint(later), func(t *testing.T) {
			pt, wrap := countPaceTimers()
			tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3, cfg: lanClock, wrap: wrap, trace: true})
			evs := &tc.trace.evs
			tc.submitAt(t0, 1, wr(1, 1, 7, 7))
			for i, d := range later {
				tc.submitAt(t0+d, 1, wr(1, uint64(i+2), 8, 8))
			}
			tc.run(50 * time.Millisecond)
			tc.requireAgreement()
			if got := len(tc.replies[1]); got != 1+len(later) {
				t.Fatalf("%d replies, want %d", got, 1+len(later))
			}
			first := firstStarts(*evs, anyNode)
			if len(first) != 2 {
				t.Fatalf("%d cycles, want 2", len(first))
			}
			second := first[2]
			if second.self != 1 || second.detail != "pace" || second.at < t0+lanPace || second.at > t0+lanPace+timerQuantum {
				t.Fatalf("cycle 2: node %v at %v, cause %s; want node 1 at %v (last start + pace), cause pace",
					second.self, second.at, second.detail, t0+lanPace)
			}
			if pt.armed != 1 || pt.most != 1 {
				t.Fatalf("%d pace timers armed, at most %d outstanding at a node; want 1 and 1", pt.armed, pt.most)
			}
		})
	}
}

// (c) Under load the leaf runs on one clock: consecutive cycles start a
// pace apart whatever phases the nodes' timers booted with. On the parent
// the starts are the union of the loaded nodes' ticks: 0.7 and 1.3 ms
// apart with the first offsets, 2 ms apart (500 a second) with the second.
func TestClockLoadedLeafStartsEveryPace(t *testing.T) {
	us := time.Microsecond
	for _, boot := range [][]time.Duration{{0, 700 * us, 1400 * us}, {0, 0, 0}, {300 * us, 1900 * us, 1000 * us}} {
		t.Run(fmt.Sprint(boot), func(t *testing.T) {
			const from, until = 20 * time.Millisecond, 220 * time.Millisecond
			pt, wrap := countPaceTimers()
			tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3, cfg: lanClock, bootAt: boot, wrap: wrap, trace: true})
			evs := &tc.trace.evs
			tc.load([]wire.NodeID{0, 1}, 5*time.Millisecond, until, 50*time.Microsecond)
			tc.run(until)
			first := firstStarts(*evs, anyNode)
			var n int
			for k, e := range first {
				next, ok := first[k+1]
				if e.at < from || !ok {
					continue
				}
				n++
				if gap := next.at - e.at; gap < lanPace*9/10 || gap > lanPace*11/10 {
					t.Fatalf("cycle %d started %v after cycle %d, want a pace (%v) within 10 %%", k+1, gap, k, lanPace)
				}
			}
			want := int((until - from) / lanPace)
			if n < want*95/100 || n > want*105/100 {
				t.Fatalf("%d cycles in %v, want %d (one a pace) within 5 %%", n, until-from, want)
			}
			if pt.most != 1 {
				t.Fatalf("%d pace timers outstanding at one node", pt.most)
			}
			for _, e := range starts(*evs) {
				if e.detail == "tick_pipeline" {
					t.Fatalf("node %v pipelined cycle %d from its tick at %v; cycles are shorter than the interval", e.self, e.cycle, e.at)
				}
			}
		})
	}
}

const wanDelay, wanInterval = 5 * time.Millisecond, 5 * time.Millisecond

// wanBoot is when a leaf's nodes boot: its tick keeps that phase.
func wanBoot(leaf int) time.Duration { return time.Duration(leaf) * 1700 * time.Microsecond }

// wanCluster is three leaves of three on a 5 ms interval, the leaves booted
// 1.7 ms after one another, with clients at one node of each of the first
// two leaves, and 5 ms added to every message between two leaves: the shape
// of the benchmark's wan_9n, injected delay included. (A netsim WAN
// topology would not do: a message in flight on a long link occupies the
// receiver's downlink until it lands, and rack traffic queues behind it.)
func wanCluster(t *testing.T, until time.Duration, clients []wire.NodeID) (*testCluster, *[]traceEvent, map[uint64]time.Duration) {
	boot := make([]time.Duration, 9)
	for i := range boot {
		boot[i] = wanBoot(i / 3)
	}
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3, bootAt: boot, trace: true,
		cfg: Config{CycleInterval: wanInterval, TickInterval: 2 * time.Millisecond}})
	var plan netsim.FaultPlan
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if a != b {
				plan.Latencies = append(plan.Latencies, netsim.LatencyFault{
					Until: time.Hour, From: tc.topo.RackMembers(a), To: tc.topo.RackMembers(b), Extra: wanDelay})
			}
		}
	}
	tc.runner.InstallFaults(plan, nil)
	submitted := tc.load(clients, 10*time.Millisecond, until, 250*time.Microsecond)
	return tc, &tc.trace.evs, submitted
}

// cyclesPerLeaf counts, per leaf, the cycles whose first start at the leaf
// falls in [from, until), and fails if a leaf skipped a cycle another
// started.
func (tc *testCluster) cyclesPerLeaf(evs []traceEvent, from, until time.Duration) [3]int {
	tc.t.Helper()
	var n [3]int
	var last uint64
	for _, e := range starts(evs) {
		last = max(last, e.cycle)
	}
	for leaf := range n {
		first := firstStarts(evs, func(id wire.NodeID) bool { return tc.tree.SuperLeafOf(id) == leaf })
		for k := uint64(1); k+uint64(tc.nodes[0].cfg.MaxInFlight) < last; k++ {
			e, ok := first[k]
			if !ok {
				tc.t.Fatalf("leaf %d never started cycle %d", leaf, k)
			}
			if e.at >= from && e.at < until {
				n[leaf]++
			}
		}
	}
	return n
}

// (d) Across a wide area the cycle timer runs the cluster as it did on the
// parent: one cycle an interval, started at every leaf — the one without
// clients included, which hears of each from the others — and the same
// submit-to-commit time.
func TestClockWanRunsOneCycleAnInterval(t *testing.T) {
	const from, until = 100 * time.Millisecond, 600 * time.Millisecond
	tc, evs, submitted := wanCluster(t, until, []wire.NodeID{0, 4})
	tc.run(until + 100*time.Millisecond)
	tc.requireAgreement()
	want := int((until - from) / wanInterval)
	for leaf, n := range tc.cyclesPerLeaf(*evs, from, until) {
		if n < want*95/100 || n > want*105/100 {
			t.Fatalf("leaf %d started %d cycles in %v, want %d (one an interval) within 5 %%", leaf, n, until-from, want)
		}
	}
	for _, e := range starts(*evs) {
		if leaf := tc.tree.SuperLeafOf(e.self); e.at >= from && leaf < 2 && e.detail != "tick_pipeline" && e.detail != "peer" {
			t.Fatalf("node %v (leaf %d, with clients) started cycle %d on %s; cycles outlive the interval, so its tick must",
				e.self, leaf, e.cycle, e.detail)
		}
	}
	// The parent's median on this schedule.
	const parentMedian = 12273 * time.Microsecond
	if got := tc.medianLatency(submitted, from, until); got > parentMedian*105/100 {
		t.Fatalf("median submit-to-commit %v, parent %v; want within 5 %%", got, parentMedian)
	}
}

// (d, the leapfrog) A leaf that started cycle k late, on hearing of it,
// and whose cycles outlive the interval starts k+1 at its own next tick,
// ahead of the news, and from then on runs on its own ticks while the load
// lasts; otherwise it would trail the others by its lateness for ever. Clients at one leaf:
// the two others hear of cycle 1 a delay late, wait another delay for
// each other's states, and so find their cycles slow. Mutation (dead end
// a): gate the in-flight tick on now-lastCycleStart >= CycleInterval, and
// leaf 1 starts every cycle on a peer's prompt.
func TestClockWanLeafLeapfrogsAtItsOwnTick(t *testing.T) {
	const from, until = 100 * time.Millisecond, 600 * time.Millisecond
	tc, evs, submitted := wanCluster(t, until, []wire.NodeID{0})
	tc.run(until + 100*time.Millisecond)
	tc.requireAgreement()

	const leaf = 1
	first := firstStarts(*evs, func(id wire.NodeID) bool { return tc.tree.SuperLeafOf(id) == leaf })
	var heard uint64 // the last cycle the leaf started on a peer's prompt under load
	for k, e := range first {
		if e.detail == "peer" && e.at < until {
			heard = max(heard, k)
		}
	}
	if heard == 0 || heard > 5 {
		t.Fatalf("leaf %d last started a cycle on a peer's prompt at cycle %d; want it to hear of the first cycles and then run on its own ticks", leaf, heard)
	}
	prompt, next := first[heard], first[heard+1]
	tick := wanBoot(leaf) + ((prompt.at-wanBoot(leaf))/wanInterval+1)*wanInterval
	if next.detail != "tick_pipeline" || next.at < tick || next.at > tick+timerQuantum {
		t.Fatalf("leaf %d heard of cycle %d at %v and started cycle %d at %v on %s; want at its next tick, %v",
			leaf, heard, prompt.at, heard+1, next.at, next.detail, tick)
	}
	want := int((until - from) / wanInterval)
	for l, n := range tc.cyclesPerLeaf(*evs, from, until) {
		if n < want*95/100 || n > want*105/100 {
			t.Fatalf("leaf %d started %d cycles in %v, want %d (one an interval) within 5 %%", l, n, until-from, want)
		}
	}
	// The parent's median on this schedule.
	const parentMedian = 13059 * time.Microsecond
	if got := tc.medianLatency(submitted, from, until); got > parentMedian*105/100 {
		t.Fatalf("median submit-to-commit %v, parent %v; want within 5 %%", got, parentMedian)
	}
}

// (d, the drain) Once the load stops, a wide-area cluster goes idle: after
// MaxInFlight empty cycles in a row each node's tick stops overlapping the
// empty cycles still in flight, and every node ends with nothing started
// that is not committed. Mutation: let the in-flight tick ignore
// emptyCycles, and each tick starts another empty cycle for ever.
func TestClockWanIdleClusterDrains(t *testing.T) {
	const until = 300 * time.Millisecond
	tc, evs, _ := wanCluster(t, until, []wire.NodeID{0, 4})
	tc.run(until + 200*time.Millisecond)
	tc.requireAgreement()
	for _, n := range tc.nodes {
		if n.started != n.committed {
			t.Fatalf("node %v has started %d and committed %d, 200 ms after the load stopped", n.ID(), n.started, n.committed)
		}
	}
	var last traceEvent
	for _, e := range starts(*evs) {
		if e.at > last.at {
			last = e
		}
	}
	if last.at > until+100*time.Millisecond {
		t.Fatalf("node %v started cycle %d at %v on %s, 100 ms after the load stopped", last.self, last.cycle, last.at, last.detail)
	}
}

// (e) On a fast network the tick starts nothing while cycles are shorter
// than the interval: nine unaligned ticks do not overlap cycles that take a
// third of it. Mutation (dead end b): an unconditional in-flight tick
// raises the cycle rate by more than 30 %.
func TestClockFastCyclesAreNotPipelined(t *testing.T) {
	const from, until = 20 * time.Millisecond, 220 * time.Millisecond
	boot := make([]time.Duration, 9)
	for i := range boot {
		boot[i] = time.Duration(i) * 210 * time.Microsecond
	}
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3, cfg: lanClock, bootAt: boot, trace: true})
	evs := &tc.trace.evs
	tc.load([]wire.NodeID{0, 4}, 5*time.Millisecond, until, 50*time.Microsecond)
	tc.run(until)
	for _, e := range starts(*evs) {
		if e.detail == "tick_pipeline" || e.detail == "tick_idle" {
			t.Fatalf("node %v started cycle %d from its tick (%s) at %v", e.self, e.cycle, e.detail, e.at)
		}
	}
	n := 0
	for _, e := range firstStarts(*evs, anyNode) {
		if e.at >= from {
			n++
		}
	}
	if want := int((until - from) / lanPace); n < want*95/100 || n > want*105/100 {
		t.Fatalf("%d cycles in %v, want %d (one a pace) within 5 %%", n, until-from, want)
	}
}

// (f) A cycle stuck in flight past the interval — its sibling leaf is cut
// off — is what the tick is for: with requests pending the next cycles
// start at the node's ticks, an interval apart, up to MaxInFlight.
func TestClockStuckCycleIsPipelinedByTheTick(t *testing.T) {
	const cutAt = 30 * time.Millisecond
	cfg := lanClock
	cfg.FetchTimeout = time.Second
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg, trace: true})
	evs := &tc.trace.evs
	tc.runner.InstallFaults(netsim.FaultPlan{Partitions: []netsim.PartitionFault{
		netsim.LeafPartition(cutAt, 0, tc.topo.RackMembers(1), tc.topo.RackMembers(0)),
	}}, nil)
	tc.load([]wire.NodeID{0}, 5*time.Millisecond, 60*time.Millisecond, 100*time.Microsecond)
	tc.run(60 * time.Millisecond)

	n0 := tc.nodes[0]
	if got, want := int(n0.started-n0.committed), n0.cfg.MaxInFlight; got != want {
		t.Fatalf("node 0 has %d cycles in flight behind the cut, want MaxInFlight (%d)", got, want)
	}
	var stuck []traceEvent
	for _, e := range starts(*evs) {
		if e.self == 0 && e.cycle > n0.committed {
			stuck = append(stuck, e)
		}
	}
	for i, e := range stuck[1:] {
		if e.detail != "tick_pipeline" {
			t.Fatalf("cycle %d started on %s, want tick_pipeline", e.cycle, e.detail)
		}
		if e.at%lanInterval > timerQuantum {
			t.Fatalf("cycle %d started at %v, not at a tick of node 0", e.cycle, e.at)
		}
		if gap := e.at - stuck[i].at; i > 0 && (gap < lanInterval || gap > lanInterval+timerQuantum) {
			t.Fatalf("cycle %d started %v after cycle %d, want an interval", e.cycle, gap, stuck[i].cycle)
		}
	}
	// The first pipelined start waits until the stuck cycle is an interval
	// old: a younger one is not slow yet.
	if age := stuck[1].at - stuck[0].at; age < lanInterval {
		t.Fatalf("the tick pipelined cycle %d when cycle %d was %v old, under the interval", stuck[1].cycle, stuck[0].cycle, age)
	}
}

// (g) A join re-initializes the clock with the rest of the protocol state:
// a pace timer armed before the JoinReply is not owed afterwards, and the
// joined node owes its own refused starts again. Mutation: onJoinReply
// without the reset leaves paceArmed set — the stale timer starts a cycle,
// or, had it been dropped with the old state, no pace timer is ever armed
// again.
func TestClockJoinResetsThePaceTimer(t *testing.T) {
	const crashAt, rejoinAt, joined = 20 * time.Millisecond, 300 * time.Millisecond, 1500 * time.Millisecond
	tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3, cfg: lanClock, trace: true})
	evs := &tc.trace.evs
	var joiner *Node
	tc.runner.InstallFaults(netsim.FaultPlan{Crashes: []netsim.CrashFault{{At: crashAt, Node: 2, RestartAt: rejoinAt}}},
		func(id wire.NodeID) engine.Machine {
			cfg := lanClock
			cfg.Tree, cfg.Self = tc.tree, id
			tc.stores[id] = kvstore.NewLogged()
			joiner = NewJoiner(cfg, tc.stores[id], Callbacks{Log: tc.log})
			tc.nodes[id] = joiner
			// What a timer armed before the re-initialization leaves behind.
			joiner.paceArmed = true
			return joiner
		})
	tc.load([]wire.NodeID{0}, 5*time.Millisecond, joined+100*time.Millisecond, 5*time.Millisecond)
	tc.run(joined)
	installed := false
	for _, e := range *evs {
		installed = installed || e.self == 2 && e.event == "join-install"
	}
	if !installed || joiner.rejoin {
		t.Fatal("node 2 did not rejoin; test premise broken")
	}
	if joiner.paceArmed {
		t.Fatal("paceArmed survived the JoinReply")
	}
	// The stale timer fires into the joined node, idle with a request
	// pending and the pace long past: it must start nothing.
	tc.sim.At(joined+lanPace/2, func() {
		joiner.accum.reqs = append(joiner.accum.reqs, wr(9, 1, 9, 9))
		joiner.accum.arrivals = append(joiner.accum.arrivals, tc.sim.Now())
		joiner.accum.writes++
		before := joiner.started
		idle := joiner.started == joiner.committed
		joiner.Timer(engine.Tag(tagPace, 0))
		if idle && joiner.started != before {
			t.Errorf("a stale pace timer started cycle %d on the joined node", joiner.started)
		}
	})
	tc.run(joined + 200*time.Millisecond)
	// The joiner's log starts at its snapshot; the states must be equal.
	if got, want := tc.stores[2].StateDigest(), tc.stores[0].StateDigest(); got != want {
		t.Fatalf("joined node's state digest %x, node 0's %x", got, want)
	}
	if tc.stores[0].Read(9) == nil {
		t.Fatal("the request pending at the joined node was never ordered")
	}
}

// Every start is counted under exactly one cause, and the family is
// exported with one series per cause beside the total it splits.
func TestClockStartsByCauseSumToStarts(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3, cfg: lanClock})
	tc.load([]wire.NodeID{0, 4}, 5*time.Millisecond, 60*time.Millisecond, 100*time.Microsecond)
	tc.run(100 * time.Millisecond)
	for _, n := range tc.nodes {
		reg := metrics.NewRegistry()
		n.RegisterMetrics(reg)
		var total, byCause float64
		causes := map[string]bool{}
		reg.Each(func(name string, labels []metrics.Label, v float64) {
			switch name {
			case "canopus_core_cycles_started_total":
				total = v
			case "canopus_core_cycle_starts_by_cause_total":
				byCause += v
				causes[labels[0].Value] = true
			}
		})
		if total == 0 || total != byCause || len(causes) != int(numStartCauses) {
			t.Fatalf("node %v: %v starts, %v by cause over %d causes; want equal sums and %d causes",
				n.ID(), total, byCause, len(causes), numStartCauses)
		}
	}
}
