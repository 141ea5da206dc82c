package harness

import (
	"math"
	"testing"
	"time"

	"canopus/internal/core"
	"canopus/internal/lincheck"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// leafScenarios is the eviction-enabled slice of the catalog: every
// scenario whose fault plan kills or cuts a whole super-leaf, exercising
// the eviction/readmission machinery end to end.
func leafScenarios(seed int64) []Scenario {
	return []Scenario{
		ScenarioLeafPartitionEvict(seed),
		ScenarioLeafMajorityCrash(seed),
		ScenarioLeafPowerLossDurable(seed),
		ScenarioGeoLeafEvictReadmit(seed),
	}
}

// TestLeafScenarioReplayBitIdentical replays each leaf scenario and
// demands bit-identical results: same commit log digest, same final
// state, same event count, same availability timeline, same history
// length. Leaf eviction adds three nondeterminism hazards the plain
// catalog doesn't have — timeout-triggered sends, map-keyed eviction
// state, and the restart-as-joiner path — so replay identity is asserted
// per scenario here, not just for the crash scenario. The partition and
// majority-crash scenarios run again with the leaf's sequencer over
// switch multicast, whose leaves evict and readmit as the software ones.
func TestLeafScenarioReplayBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("leaf replay matrix runs in full mode")
	}
	scenarios := leafScenarios(17)
	for _, sc := range scenarios[:2] {
		sc.Name += "-switch"
		sc.Spec.Node.Broadcast = core.BroadcastSwitch
		scenarios = append(scenarios, sc)
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r1 := RunChaos(sc.Spec)
			t.Logf("%s: %s", sc.Name, r1)
			if !r1.Linearizable {
				t.Fatalf("history of %d ops is not linearizable", len(r1.History))
			}
			if r1.Evictions == 0 {
				t.Fatal("no leaf eviction resolved; the scenario's fault did not bite")
			}
			if r1.Readmissions == 0 {
				t.Fatal("evicted leaf never readmitted")
			}
			r2 := RunChaos(sc.Spec)
			if r1.Commits != r2.Commits || r1.CommitDigest != r2.CommitDigest ||
				r1.StateDigest != r2.StateDigest || r1.Events != r2.Events {
				t.Fatalf("replay diverged: commits %d/%d commitdigest %x/%x state %x/%x events %d/%d",
					r1.Commits, r2.Commits, r1.CommitDigest, r2.CommitDigest,
					r1.StateDigest, r2.StateDigest, r1.Events, r2.Events)
			}
			if len(r1.History) != len(r2.History) {
				t.Fatalf("replay histories differ: %d vs %d ops", len(r1.History), len(r2.History))
			}
			if len(r1.Windows) != len(r2.Windows) {
				t.Fatalf("replay timelines differ: %d vs %d windows", len(r1.Windows), len(r2.Windows))
			}
			for i := range r1.Windows {
				if r1.Windows[i] != r2.Windows[i] {
					t.Fatalf("window %d diverged: %d vs %d commits", i, r1.Windows[i], r2.Windows[i])
				}
			}
		})
	}
}

// TestLeafMajorityCrashBoundedRecovery pins the recovery-time story for
// the worst intra-leaf fault short of power loss: two of three members
// crash, the leaf loses its broadcast quorum, and the survivors must
// evict the whole leaf before commits resume. The outage is bounded by
// LeafTimeout plus the eviction round's resolution, and the availability
// timeline must show exactly that shape — commits, a gap, commits.
func TestLeafMajorityCrashBoundedRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("covered in spirit by the quick catalog's leaf-partition-evict")
	}
	sc := ScenarioLeafMajorityCrash(19)
	r := RunChaos(sc.Spec)
	t.Logf("%s: %s windows=%v", sc.Name, r, r.Windows)
	if !r.Linearizable {
		t.Fatal("history not linearizable")
	}
	if !r.Recovered {
		t.Fatalf("no commit after the fault (longest stall %v)", r.LongestStall)
	}
	// The leaf quorum dies at FaultAt; the merge wedges until the
	// survivors' eviction lands. The stall must reflect the armed
	// LeafTimeout (600ms) — much shorter means the fault didn't bite,
	// much longer means eviction resolution is not bounded.
	if r.LongestStall < sc.Spec.Node.LeafTimeout {
		t.Fatalf("longest stall %v < LeafTimeout %v; the crash did not wedge the merge",
			r.LongestStall, sc.Spec.Node.LeafTimeout)
	}
	if r.LongestStall > 4*sc.Spec.Node.LeafTimeout {
		t.Fatalf("longest stall %v; eviction should bound the outage near LeafTimeout=%v",
			r.LongestStall, sc.Spec.Node.LeafTimeout)
	}
	if r.Evictions == 0 || r.Readmissions == 0 {
		t.Fatalf("evictions=%d readmissions=%d; want both > 0", r.Evictions, r.Readmissions)
	}
	// Availability timeline shape: an outage gap around the fault, then
	// sustained commits once the tombstone lands — including the tail,
	// after the crashed pair rejoined.
	gap := 0
	for _, w := range r.Windows {
		if w == 0 {
			gap++
		}
	}
	if gap == 0 {
		t.Fatal("no zero-commit window; the outage is invisible in the timeline")
	}
	maxGapWindows := int(4*sc.Spec.Node.LeafTimeout/r.WindowSize) + 1
	if gap > maxGapWindows {
		t.Fatalf("%d outage windows (%v); want ≤ %d", gap, time.Duration(gap)*r.WindowSize, maxGapWindows)
	}
	tail := r.Windows[len(r.Windows)-5:]
	for i, w := range tail {
		if w == 0 {
			t.Fatalf("tail window %d of 5 has no commits; cluster not healthy after readmission", i)
		}
	}
}

// TestLeafPartitionEvictOutageShape asserts the signature property of
// leaf eviction: availability returns while the partition is still up.
// The cut leaf wedges the merge only until the survivors evict it —
// well before the heal — so the timeline must show commits resuming
// between eviction and heal.
func TestLeafPartitionEvictOutageShape(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the quick catalog in short mode")
	}
	sc := ScenarioLeafPartitionEvict(23)
	r := RunChaos(sc.Spec)
	t.Logf("%s: %s windows=%v", sc.Name, r, r.Windows)
	if !r.Linearizable {
		t.Fatal("history not linearizable")
	}
	// The partition runs [1.5s, 3.5s); eviction resolves ~LeafTimeout
	// (600ms) into it. Count commits in the still-partitioned span after
	// the eviction budget: [2.5s, 3.5s) must be served by the surviving
	// two leaves.
	lo := int((2500 * time.Millisecond) / r.WindowSize)
	hi := int((3500 * time.Millisecond) / r.WindowSize)
	served := 0
	for _, w := range r.Windows[lo:hi] {
		if w > 0 {
			served++
		}
	}
	if served < (hi-lo)*3/4 {
		t.Fatalf("only %d/%d mid-partition windows saw commits; eviction did not restore availability",
			served, hi-lo)
	}
	if r.Availability < 0.75 {
		t.Fatalf("availability %.2f; a 600ms-bounded outage in a 7s run should stay above 0.75",
			r.Availability)
	}
}

// TestGeoLeafEvictReadmitCampaign is the geo-scale acceptance run: five
// DCs across the WAN latency ladder, the transoceanic one cut off and
// readmitted, with every timeout budget riding real continental round
// trips. Beyond the catalog invariants it asserts full replica
// convergence — the rejoined DC's replicas must end bit-identical to
// the reference, state transfer included.
func TestGeoLeafEvictReadmitCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("geo campaign runs in full mode")
	}
	sc := ScenarioGeoLeafEvictReadmit(23)
	r := RunChaos(sc.Spec)
	t.Logf("%s: %s", sc.Name, r)
	if !r.Linearizable {
		t.Fatal("history not linearizable")
	}
	if r.Evictions == 0 || r.Readmissions == 0 {
		t.Fatalf("evictions=%d readmissions=%d; want both > 0", r.Evictions, r.Readmissions)
	}
	// One DC of five is gone for 4 of 12 seconds, and WAN commit latency
	// bunches commits per round trip: the availability floor is modest
	// but must clear the all-stalled failure mode.
	if r.Availability < 0.30 {
		t.Fatalf("availability %.2f; geo campaign floor is 0.30", r.Availability)
	}
	// Eviction must bound the outage: the merge may wedge from the cut
	// until the tombstone lands (~LeafTimeout + WAN resolution), never
	// for the partition's whole 4s.
	if r.LongestStall > 3*time.Second {
		t.Fatalf("longest stall %v; eviction should cap the outage near LeafTimeout=%v",
			r.LongestStall, sc.Spec.Node.LeafTimeout)
	}
	var ref *ReplicaState
	for i := range r.Replicas {
		if !r.Replicas[i].Restarted {
			ref = &r.Replicas[i]
			break
		}
	}
	if ref == nil {
		t.Fatal("no never-restarted replica to anchor convergence")
	}
	for _, rep := range r.Replicas {
		if rep.Committed != ref.Committed {
			t.Fatalf("replica n%d committed=%d, reference n%d committed=%d; rejoined DC lagged out of the run",
				rep.Node, rep.Committed, ref.Node, ref.Committed)
		}
		if rep.StateDigest != ref.StateDigest {
			t.Fatalf("replica n%d state %x != reference n%d state %x; state transfer diverged",
				rep.Node, rep.StateDigest, ref.Node, ref.StateDigest)
		}
	}
}

// TestGeoRejoinerSeatedFromAfarConverges pins two seeds of the geo
// campaign at which a rejoined node used to end halted a hundred cycles
// behind: its leaf-mates seated it and opened its broadcast group, whose
// election timers fired before its JoinReply, sent by a sponsor an
// intercontinental hop away, reached it, so the leaf cut it again. A
// seated joiner now gets FetchTimeout longer before its leaf's sequencer
// may cut it.
func TestGeoRejoinerSeatedFromAfarConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("geo campaign runs in full mode")
	}
	for _, seed := range []int64{1, 6} {
		r := RunChaos(ScenarioGeoLeafEvictReadmit(seed).Spec)
		if !r.Linearizable || r.Readmissions == 0 {
			t.Fatalf("seed %d: %s", seed, r)
		}
		ref := r.Replicas[0]
		for _, rep := range r.Replicas {
			if rep.Committed != ref.Committed || rep.StateDigest != ref.StateDigest {
				t.Fatalf("seed %d: replica n%d committed %d, n%d committed %d", seed, rep.Node, rep.Committed, ref.Node, ref.Committed)
			}
		}
	}
}

// TestGeoCampaignSeedsOfOneLeafOrder pins three seeds of the geo
// campaign that reach the one-leaf-order bug: when the members of a leaf
// deliver its broadcasts in different orders, replicas end apart. They
// were found in a copy of the broadcast where each origin delivers its
// own broadcasts at once, in its own order, and the others' in the
// leaf's: at seeds 84 and 158 two replicas of one leaf end with different
// commit logs, at seed 88 a replica ends behind the others. With one
// sequencer per leaf every member delivers one order, and the three runs
// are linearizable and converge.
func TestGeoCampaignSeedsOfOneLeafOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("geo campaign runs in full mode")
	}
	for _, seed := range []int64{84, 88, 158} {
		r := RunChaos(ScenarioGeoLeafEvictReadmit(seed).Spec)
		if !r.Linearizable || r.Readmissions == 0 {
			t.Fatalf("seed %d: %s", seed, r)
		}
		if err := convergence(r); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestGeoSeed24LosesAnAcknowledgedWrite pins defect (12), degraded
// mode's open safety defect, at seed 24 of the geo campaign: a client of
// the cut leaf (dc4, nodes 12–14, cut off at 2 s) is told "ok" for a
// write invoked before the cut and acknowledged after it, which the
// survivors never apply, so the history is not linearizable. The test
// asserts that the defect shows. Once it is fixed the test fails: then
// assert instead that seed 24 is linearizable.
func TestGeoSeed24LosesAnAcknowledgedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("geo campaign runs in full mode")
	}
	r, run := runChaosInner(ScenarioGeoLeafEvictReadmit(24).Spec)
	if r.Linearizable {
		t.Fatalf("seed 24 is linearizable, defect (12) no longer shows: %s", r)
	}
	cut := int64(2 * time.Second)
	byKey := map[uint64][]lincheck.Op{}
	for _, op := range r.History {
		byKey[op.Key] = append(byKey[op.Key], op)
	}
	for _, ops := range byKey {
		if lincheck.CheckKey(ops) {
			continue
		}
		for _, op := range ops {
			home := (int(op.Value>>20) - 1) % len(run.nodes) // the value carries the worker
			if op.Kind == lincheck.OpWrite && home >= 12 && op.Invoke < cut && op.Return > cut && op.Return != math.MaxInt64 {
				return
			}
		}
	}
	t.Fatalf("seed 24 is not linearizable, but no failing key holds a write of a dc4 client acknowledged after the cut: %s", r)
}

// TestLargeTopologySoak is the width test: seven super-leaves of nine
// nodes — 63 replicas — with one whole leaf cut and healed
// mid-run. Asserts the catalog invariants plus replica-set convergence
// and replay identity at a scale where per-leaf bookkeeping bugs
// (ordinal mixups, map-order sends, quorum miscounts) actually surface.
func TestLargeTopologySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("63-node soak runs in full mode")
	}
	leaf3 := ids(27, 28, 29, 30, 31, 32, 33, 34, 35)
	var rest []wire.NodeID
	for i := 0; i < 63; i++ {
		if i < 27 || i >= 36 {
			rest = append(rest, wire.NodeID(i))
		}
	}
	spec := ChaosSpec{
		Groups: 7, PerGroup: 9, Seed: 31,
		Duration: 6 * time.Second,
		FaultAt:  1500 * time.Millisecond,
		// 63 closed-loop default clients burn the default 128-key
		// lincheck budget (128 keys × 55 checkable ops) in under two
		// seconds, and once every client parks the self-clocked cycles
		// stop with them. One client per node over a 1024-key space
		// keeps load (and the availability timeline) alive for the full
		// run while staying inside the checker's per-key window.
		Clients: 1,
		Keys:    1024,
		Node: core.Config{
			LeafTimeout:  600 * time.Millisecond,
			FetchTimeout: 100 * time.Millisecond,
		},
		Faults: netsim.FaultPlan{
			Partitions: []netsim.PartitionFault{
				netsim.LeafPartition(1500*time.Millisecond, 3500*time.Millisecond, leaf3, rest),
			},
		},
	}
	r := RunChaos(spec)
	t.Logf("soak-63: %s windows=%v", r, r.Windows)
	if !r.Linearizable {
		t.Fatal("history not linearizable")
	}
	if !r.Recovered {
		t.Fatalf("no commit after the fault (longest stall %v)", r.LongestStall)
	}
	if r.Evictions == 0 || r.Readmissions == 0 {
		t.Fatalf("evictions=%d readmissions=%d; want both > 0", r.Evictions, r.Readmissions)
	}
	if r.Availability < 0.6 {
		t.Fatalf("availability %.2f; 63-node floor is 0.6", r.Availability)
	}
	var ref *ReplicaState
	for i := range r.Replicas {
		if !r.Replicas[i].Restarted {
			ref = &r.Replicas[i]
			break
		}
	}
	if ref == nil {
		t.Fatal("no never-restarted replica to anchor convergence")
	}
	for _, rep := range r.Replicas {
		if rep.Committed == ref.Committed && rep.StateDigest != ref.StateDigest {
			t.Fatalf("replica n%d state %x != reference n%d state %x at committed=%d",
				rep.Node, rep.StateDigest, ref.Node, ref.StateDigest, rep.Committed)
		}
		if !rep.Restarted && rep.Committed != ref.Committed {
			t.Fatalf("never-restarted replica n%d committed=%d, reference=%d; survivors must track the merge",
				rep.Node, rep.Committed, ref.Committed)
		}
	}
	r2 := RunChaos(spec)
	if r.Commits != r2.Commits || r.CommitDigest != r2.CommitDigest ||
		r.StateDigest != r2.StateDigest || r.Events != r2.Events {
		t.Fatalf("soak replay diverged: commits %d/%d state %x/%x events %d/%d",
			r.Commits, r2.Commits, r.StateDigest, r2.StateDigest, r.Events, r2.Events)
	}
}
