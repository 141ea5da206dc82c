package core

import (
	"testing"
	"time"

	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// Rounds 2..h disseminate by push: the emulator the view elects sends a
// vnode state to the sibling leaves' representatives the moment it is
// computed, and ProposalRequest is the fallback a representative uses when
// a state does not arrive. These tests run on netsim's virtual clock, so
// the latency bounds are exact.

func countEvents(evs []traceEvent, event string) int {
	n := 0
	for _, e := range evs {
		if e.event == event {
			n++
		}
	}
	return n
}

func (tc *testCluster) fetchRetries() uint64 {
	var n uint64
	for _, node := range tc.nodes {
		n += node.stats.fetchRetries.Load()
	}
	return n
}

// roundSlack bounds everything in a height-2 cycle that is not WAN delay:
// the round-1 broadcast, the rebroadcast of the received states and the
// simulated CPU, all inside a rack.
const roundSlack = 2 * time.Millisecond

// (a) With the leaves starting a cycle together, the cycle commits one
// one-way delay after its start: nobody waits for a request to travel
// first. (The pull needed two.)
func TestPushCommitsWithinOneWayDelay(t *testing.T) {
	const wan, t0 = 20 * time.Millisecond, 10 * time.Millisecond
	tc := newTestCluster(t, clusterOpts{racks: 3, perRack: 3, wan: wan, trace: true})
	evs := &tc.trace.evs
	for r := 0; r < 3; r++ {
		tc.submitAt(t0, tc.topo.RackMembers(r)[0], wr(uint64(r+1), 1, uint64(r), 1))
	}
	tc.run(time.Second)
	tc.requireAgreement()
	for r := 0; r < 3; r++ {
		reps := tc.replies[tc.topo.RackMembers(r)[0]]
		if len(reps) != 1 {
			t.Fatalf("leaf %d: %d replies, want 1", r, len(reps))
		}
		if took := reps[0].at - t0; took < wan || took > wan+roundSlack {
			t.Fatalf("leaf %d: write committed %v after the cycle started, want within [%v, %v]",
				r, took, wan, wan+roundSlack)
		}
	}
	if n := countEvents(*evs, "fetch"); n != 0 {
		t.Fatalf("%d pulls in a fault-free cycle", n)
	}
}

// (b) A lost push costs a FetchTimeout, not the cycle: the representative
// pulls, and when the answer is lost too it asks another emulator.
func TestLostPushIsPulledAfterFetchTimeout(t *testing.T) {
	const t0, timeout = 10 * time.Millisecond, 50 * time.Millisecond
	cfg := Config{TickInterval: time.Millisecond, FetchTimeout: timeout}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg, trace: true})
	evs := &tc.trace.evs
	sl0, sl1 := tc.topo.RackMembers(0), tc.topo.RackMembers(1)
	// Leaf 0 hears nothing from leaf 1 until after its first pull: the
	// push and the first answer are dropped, the second answer arrives.
	tc.runner.InstallFaults(netsim.FaultPlan{Drops: []netsim.DropFault{
		{At: 0, Until: t0 + timeout + timeout/2, From: sl1, To: sl0, Prob: 1},
	}}, nil)
	tc.submitAt(t0, sl0[2], wr(1, 1, 7, 7))
	tc.run(time.Second)
	tc.requireAgreement()

	reps := tc.replies[sl0[2]]
	if len(reps) != 1 {
		t.Fatalf("%d replies, want 1", len(reps))
	}
	if took := reps[0].at - t0; took < 2*timeout || took > 2*timeout+2*roundSlack {
		t.Fatalf("write committed after %v, want two fetch timeouts (%v) and no more", took, 2*timeout)
	}
	asked := map[wire.NodeID]bool{}
	pulls := 0
	for _, e := range *evs {
		switch {
		case e.event == "fetch" && tc.tree.SuperLeafOf(e.self) == 0:
			pulls++
			if e.at < t0+timeout {
				t.Fatalf("node %v pulled at %v, before the pushed state was overdue", e.self, e.at)
			}
		case e.event == "fetch-req" && tc.tree.SuperLeafOf(e.self) == 1:
			asked[e.self] = true
		}
	}
	if pulls != 2 || len(asked) != 2 {
		t.Fatalf("%d pulls to %d emulators, want 2 pulls to 2 different emulators", pulls, len(asked))
	}
	if got := tc.fetchRetries(); got != 2 {
		t.Fatalf("fetch_retries_total = %d, want 2 (both pulls followed an expired deadline)", got)
	}
}

// (c) Remote pushers aim at the committed view's representative. When it
// is cut mid-cycle, the survivors pull what was pushed to it at the cut,
// and pull at the start of every cycle until its Leave has committed: no
// cycle waits a FetchTimeout for a state sent to a corpse.
func TestCutRepresentativeIsPulledAround(t *testing.T) {
	const wan, timeout = 20 * time.Millisecond, 2 * time.Second
	const t0, crashAt, t1 = 10 * time.Millisecond, 15 * time.Millisecond, 400 * time.Millisecond
	cfg := Config{TickInterval: time.Millisecond, FetchTimeout: timeout}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, wan: wan, cfg: cfg, trace: true})
	evs := &tc.trace.evs
	victim := tc.nodes[0].View().RepresentativeFor(0, tc.tree.Remote(0)[0], 2)
	submitter := wire.NodeID(2) // in leaf 0, never a representative
	tc.runner.InstallFaults(netsim.FaultPlan{
		Crashes: []netsim.CrashFault{{At: crashAt, Node: victim}},
	}, nil)
	tc.submitAt(t0, submitter, wr(1, 1, 7, 7))
	// Starts cycle 2, whose proposal carries the victim's Leave: the view
	// still lists the victim while the cycle runs.
	tc.submitAt(t1, submitter, wr(1, 2, 8, 8))
	tc.run(timeout)
	tc.requireAgreement()

	var cutAt time.Duration
	for _, e := range *evs {
		if e.event == "fetch" && e.cycle == 1 && cutAt == 0 {
			cutAt = e.at // reassignFetches runs at the failure cut
		}
	}
	reps := tc.replies[submitter]
	if len(reps) != 2 || cutAt == 0 {
		t.Fatalf("%d replies (want 2), first pull at %v", len(reps), cutAt)
	}
	if took := reps[0].at - cutAt; took > 2*wan+roundSlack {
		t.Fatalf("in-flight cycle committed %v after the cut, want a round trip (%v)", took, 2*wan)
	}
	if took := reps[1].at - t1; took > 2*wan+roundSlack {
		t.Fatalf("cycle started before the Leave committed took %v, want a round trip (%v)", took, 2*wan)
	}
	if tc.nodes[submitter].View().Alive(victim) {
		t.Fatal("the victim's Leave never committed")
	}
	if got := tc.fetchRetries(); got != 0 {
		t.Fatalf("fetch_retries_total = %d: a cycle waited out its deadline", got)
	}
}

// (d) Height 3, 27 nodes, no faults: every leaf receives every state it
// merges exactly once per cycle, all of them pushed — no ProposalRequest
// is sent at all.
func TestHeightThreeEveryStatePushedOnce(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 9, perRack: 3, fanout: 3, trace: true})
	if tc.tree.Height != 3 {
		t.Fatalf("height = %d, want 3", tc.tree.Height)
	}
	evs := &tc.trace.evs
	const cycles = 5
	for k := 0; k < cycles; k++ {
		for i := 0; i < 27; i++ {
			tc.submitAt(time.Duration(1+20*k)*time.Millisecond, wire.NodeID(i),
				wr(uint64(i+1), uint64(k+1), uint64(i), uint64(k)))
		}
	}
	tc.run(time.Second)
	tc.requireAgreement()
	if got := tc.nodes[0].Committed(); got != cycles {
		t.Fatalf("committed %d cycles, want %d", got, cycles)
	}

	type slot struct {
		leaf  int
		cycle uint64
		vnode string
	}
	received := map[slot]int{}
	for _, e := range *evs {
		if e.event == "fetch-resp" {
			received[slot{tc.tree.SuperLeafOf(e.self), e.cycle, e.detail}]++
		}
	}
	want := 0
	for sl := 0; sl < 9; sl++ {
		for _, u := range tc.tree.Remote(sl) {
			for k := uint64(1); k <= cycles; k++ {
				want++
				if got := received[slot{sl, k, u}]; got != 1 {
					t.Fatalf("leaf %d received the state of %s for cycle %d %d times, want once", sl, u, k, got)
				}
			}
		}
	}
	var pushes uint64
	for _, n := range tc.nodes {
		pushes += n.stats.statePushes.Load()
	}
	if len(received) != want || pushes != uint64(want) {
		t.Fatalf("%d states received in %d pushes, want %d of each", len(received), pushes, want)
	}
	if pulls, reqs := countEvents(*evs, "fetch"), countEvents(*evs, "fetch-req"); pulls+reqs != 0 {
		t.Fatalf("fault-free run sent %d ProposalRequests (%d received)", pulls, reqs)
	}
	if got := tc.fetchRetries(); got != 0 {
		t.Fatalf("fetch_retries_total = %d on a fault-free run", got)
	}
}

// (e) A leaf with no work of its own is started by the first state pushed
// to it and answers with its own: the busy leaf commits after one round
// trip without having asked for anything.
func TestPushStartsIdleLeaf(t *testing.T) {
	const wan, t0 = 20 * time.Millisecond, 10 * time.Millisecond
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, wan: wan, trace: true})
	evs := &tc.trace.evs
	tc.submitAt(t0, 0, wr(1, 1, 7, 7))
	tc.run(time.Second)
	tc.requireAgreement()

	for _, e := range *evs {
		if e.event == "start" && tc.tree.SuperLeafOf(e.self) == 1 && e.at < t0+wan {
			t.Fatalf("idle leaf's node %v started cycle %d at %v, before any state could reach it", e.self, e.cycle, e.at)
		}
	}
	for i := range tc.nodes {
		if got := tc.nodes[i].Committed(); got != 1 {
			t.Fatalf("node %d committed %d cycles, want 1", i, got)
		}
	}
	reps := tc.replies[0]
	if len(reps) != 1 {
		t.Fatalf("%d replies, want 1", len(reps))
	}
	if took := reps[0].at - t0; took > 2*wan+2*roundSlack {
		t.Fatalf("write committed after %v, want a round trip (%v)", took, 2*wan)
	}
	if n := countEvents(*evs, "fetch"); n != 0 {
		t.Fatalf("%d pulls: the idle leaf should have been started by the push", n)
	}
}
