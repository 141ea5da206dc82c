package harness

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"canopus/internal/lincheck"

	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// convergence reports the first replica alive at the end of run r that
// does not stand at the reference replica's committed cycle with the
// digests of the other live replicas: every catalog fault heals, and a
// node left behind, or apart, is a node the cluster lost.
func convergence(r ChaosResult) error {
	var ref *ReplicaState
	for i := range r.Replicas {
		rep := &r.Replicas[i]
		if !rep.Alive {
			continue
		}
		if rep.Committed != r.Commits {
			return fmt.Errorf("replica %v ends at cycle %d, the reference at %d", rep.Node, rep.Committed, r.Commits)
		}
		if ref == nil {
			ref = rep
			continue
		}
		if rep.LogLen != ref.LogLen || rep.LogDigest != ref.LogDigest || rep.StateDigest != ref.StateDigest {
			return fmt.Errorf("replicas %v and %v diverge at cycle %d: loglen %d/%d logdigest %x/%x state %x/%x",
				ref.Node, rep.Node, rep.Committed, ref.LogLen, rep.LogLen,
				ref.LogDigest, rep.LogDigest, ref.StateDigest, rep.StateDigest)
		}
	}
	return nil
}

// acknowledgedApplied reports the first live replica whose final state
// loses an acknowledged write: one read of every key at the run's end,
// answered from that replica's store, must keep the history linearizable
// — the value read is the last write to land, and no acknowledged write
// can have been invoked after it returned.
func acknowledgedApplied(res ChaosResult, run *chaosRun) error {
	end := int64(run.spec.Duration + 3*run.spec.OpTimeout)
	keys := map[uint64]bool{}
	for _, op := range res.History {
		keys[op.Key] = true
	}
	for i, rep := range res.Replicas {
		if !rep.Alive {
			continue
		}
		h := append([]lincheck.Op(nil), res.History...)
		for k := range keys {
			var v uint64
			if b := run.stores[i].Read(k); len(b) >= 8 {
				v = binary.LittleEndian.Uint64(b)
			}
			h = append(h, lincheck.Op{Kind: lincheck.OpRead, Key: k, Value: v, Invoke: end, Return: end})
		}
		if !lincheck.Check(h) {
			return fmt.Errorf("replica %v lost an acknowledged write", rep.Node)
		}
	}
	return nil
}

// TestConnectionResetScenario runs ScenarioConnectionReset at seeds 1–5:
// the resets find operations in flight, which fail over, and the history
// stays linearizable with every acknowledged write applied on every
// replica.
func TestConnectionResetScenario(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res, run := runChaosInner(ScenarioConnectionReset(seed).Spec)
		retries := uint64(0)
		for _, w := range run.workers {
			retries += w.cl.Stats().Retries
		}
		t.Logf("seed %d: %s retries=%d", seed, res, retries)
		if retries == 0 {
			t.Fatalf("seed %d: no operation was in flight at a reset; scenario premise broken", seed)
		}
		if !res.Linearizable {
			t.Fatalf("seed %d: history of %d ops is not linearizable", seed, len(res.History))
		}
		if err := acknowledgedApplied(res, run); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := convergence(res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestScenarioCatalog runs every cataloged chaos scenario and checks the
// four invariants all of them share: the system keeps (or resumes)
// committing, the completed-operation history is linearizable, every
// live replica ends at one cycle with one state, and the run is
// reproducible. Under -short only the QuickScenarios subset runs.
func TestScenarioCatalog(t *testing.T) {
	scenarios := Scenarios(11)
	if testing.Short() {
		scenarios = QuickScenarios(11)
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r := RunChaos(sc.Spec)
			t.Logf("%s: %s events=%d", sc.Name, r, r.Events)
			if !r.Linearizable {
				t.Fatalf("history of %d ops is not linearizable", len(r.History))
			}
			if r.Commits == 0 || r.OpsDone == 0 {
				t.Fatalf("no progress: commits=%d ops=%d", r.Commits, r.OpsDone)
			}
			if sc.Spec.FaultAt > 0 && !r.Recovered {
				t.Fatalf("no commit after the fault at %v (longest stall %v)", sc.Spec.FaultAt, r.LongestStall)
			}
			if err := convergence(r); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMemberCutRejoins: a member its leaf-mates cut in stock mode — no
// LeafTimeout — learns it at the heal, restarts through the join
// protocol and ends where every other replica does, a follower or the
// leaf's sequencer, with and without durable disks.
func TestMemberCutRejoins(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	for _, victim := range []int{4, 3} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%v", ScenarioMemberCut(1, victim).Name, durable), func(t *testing.T) {
				for seed := int64(1); seed <= seeds; seed++ {
					spec := ScenarioMemberCut(seed, victim).Spec
					spec.Durable = durable
					r := RunChaos(spec)
					if !r.Linearizable {
						t.Errorf("seed %d: history of %d ops is not linearizable", seed, len(r.History))
					}
					if err := convergence(r); err != nil {
						t.Errorf("seed %d: %v", seed, err)
					}
					if !r.Replicas[victim].Restarted {
						t.Errorf("seed %d: node %d was never restarted", seed, victim)
					}
				}
			})
		}
	}
}

// TestRepresentativeCrashMidCycleCommitsAfterRecovery is the acceptance
// scenario: a representative dies mid-cycle, the cluster commits the
// in-flight cycle after recovery with a linearizable history, and
// replaying the same seed + FaultPlan yields an identical commit log.
func TestRepresentativeCrashMidCycleCommitsAfterRecovery(t *testing.T) {
	sc := ScenarioRepresentativeCrashMidCycle(7)
	r1 := RunChaos(sc.Spec)
	t.Logf("run: %s", r1)
	if !r1.Linearizable {
		t.Fatal("history not linearizable")
	}
	if !r1.Recovered {
		t.Fatalf("cluster never committed after the representative crash (stall %v)", r1.LongestStall)
	}
	// Commits strictly after the fault: the availability timeline must
	// contain post-fault events beyond the pre-fault count.
	if r1.Recovery > 2*time.Second {
		t.Fatalf("recovery took %v; failure cut + fetch takeover should land well under 2s", r1.Recovery)
	}

	r2 := RunChaos(sc.Spec)
	if r1.CommitDigest != r2.CommitDigest || r1.StateDigest != r2.StateDigest ||
		r1.Commits != r2.Commits || r1.Events != r2.Events {
		t.Fatalf("replay diverged: commits %d/%d digest %x/%x state %x/%x events %d/%d",
			r1.Commits, r2.Commits, r1.CommitDigest, r2.CommitDigest,
			r1.StateDigest, r2.StateDigest, r1.Events, r2.Events)
	}
	if len(r1.History) != len(r2.History) {
		t.Fatalf("replay produced different histories: %d vs %d ops", len(r1.History), len(r2.History))
	}
}

// TestWANPartitionAvailabilityDip checks the availability metrics see
// the partition: commits stall for roughly the cut's length and resume
// promptly after the heal.
func TestWANPartitionAvailabilityDip(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN scenario is covered by the catalog test in full mode")
	}
	sc := ScenarioWANPartitionHeal(3)
	r := RunChaos(sc.Spec)
	t.Logf("wan: %s", r)
	if !r.Linearizable {
		t.Fatal("history not linearizable")
	}
	// The cut lasts 1s; the longest commit-free span must reflect it.
	if r.LongestStall < 900*time.Millisecond {
		t.Fatalf("longest stall %v; expected ≈1s partition outage", r.LongestStall)
	}
	if !r.Recovered || r.Recovery > time.Second {
		t.Fatalf("commits did not resume promptly after heal: recovered=%v in %v", r.Recovered, r.Recovery)
	}
	if r.Availability < 0.4 || r.Availability > 0.95 {
		t.Fatalf("availability %.2f implausible for a 1s outage in a 6s run", r.Availability)
	}
}

// TestRollingRestartsConverge checks state-loss restarts: after both
// nodes rejoin via the join protocol, every replica holds the same
// state.
func TestRollingRestartsConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the catalog test in full mode")
	}
	sc := ScenarioRollingRestarts(5)
	r := RunChaos(sc.Spec)
	t.Logf("rolling: %s", r)
	if !r.Linearizable {
		t.Fatal("history not linearizable")
	}
	// The crashes must actually interrupt service: each kill stalls
	// commits for at least the broadcast failure-detection window
	// (25×4×Tick = 100ms) before the cut re-drives the cycles.
	if r.LongestStall < 100*time.Millisecond {
		t.Fatalf("longest stall %v; the crash plan did not bite", r.LongestStall)
	}
}

// TestChaosReferencePicksUncrashedNode pins the digest anchor rule.
func TestChaosReferencePicksUncrashedNode(t *testing.T) {
	plan := netsim.FaultPlan{Crashes: []netsim.CrashFault{
		{At: time.Second, Node: 0}, {At: time.Second, Node: 1, RestartAt: 2 * time.Second},
	}}
	if got := referenceNode(6, plan); got != wire.NodeID(2) {
		t.Fatalf("reference = %v, want 2", got)
	}
	// All-crash plans anchor on the lowest restarting node.
	all := netsim.FaultPlan{Crashes: []netsim.CrashFault{
		{At: time.Second, Node: 0},
		{At: time.Second, Node: 1, RestartAt: 2 * time.Second},
		{At: time.Second, Node: 2, RestartAt: 2 * time.Second},
	}}
	if got := referenceNode(3, all); got != wire.NodeID(1) {
		t.Fatalf("all-crash reference = %v, want 1", got)
	}
}

// TestPowerLossRecoversAtEverySeed pins the seeds at which a full-cluster
// power loss once stalled for the rest of the run (defect (10)). Two
// leaves restart at different durable watermarks, and the one behind can
// only catch up by fetching committed roots from the one ahead: at a
// cycle its own round 1 already finished (root catch-up used to wait for
// a cycle still in round 1), and at the cycle the leading leaf's snapshot
// covers (recovery used to keep the roots of the WAL tail only, not the
// roots the snapshot covers). A node that restarted under its old
// incarnation after its leaf-mates cut it must not depose their groups'
// leaders either.
func TestPowerLossRecoversAtEverySeed(t *testing.T) {
	for _, seed := range []int64{10, 11, 52, 71, 72, 89, 110, 112, 133, 148, 158, 205, 216, 218, 264} {
		r := RunChaos(ScenarioPowerLoss(seed).Spec)
		if !r.Linearizable {
			t.Errorf("seed %d: history of %d ops is not linearizable", seed, len(r.History))
		}
		if !r.Recovered {
			t.Errorf("seed %d: no commit after the power loss (longest stall %v, %d commits)", seed, r.LongestStall, r.Commits)
		}
	}
}

// TestPowerLossDurableRecovery is the acceptance scenario for the
// storage engine: every node is killed at the same instant and restarts
// from its durable disk. Commits must resume, the history spanning the
// outage must be linearizable, every replica must end at one cycle with
// identical state, and replaying the same seed + plan — recovery
// included — must be bit-identical.
func TestPowerLossDurableRecovery(t *testing.T) {
	sc := ScenarioPowerLoss(9)
	r1 := RunChaos(sc.Spec)
	t.Logf("power-loss: %s events=%d", r1, r1.Events)
	if !r1.Linearizable {
		t.Fatalf("history of %d ops is not linearizable across the outage", len(r1.History))
	}
	if !r1.Recovered {
		t.Fatalf("no commit after full-cluster restart (longest stall %v)", r1.LongestStall)
	}
	// The outage is ~1.5s of wall-clock plus the restart stagger: the
	// stall must reflect it, or the plan did not actually take the whole
	// cluster down.
	if r1.LongestStall < time.Second {
		t.Fatalf("longest stall %v; the power loss did not bite", r1.LongestStall)
	}
	// Durable recovery must preserve replica equality, and every replica
	// must catch up: all six end at one cycle with one state.
	if err := convergence(r1); err != nil {
		t.Fatal(err)
	}

	r2 := RunChaos(sc.Spec)
	if r1.CommitDigest != r2.CommitDigest || r1.StateDigest != r2.StateDigest ||
		r1.Commits != r2.Commits || r1.Events != r2.Events {
		t.Fatalf("replay diverged: commits %d/%d digest %x/%x state %x/%x events %d/%d",
			r1.Commits, r2.Commits, r1.CommitDigest, r2.CommitDigest,
			r1.StateDigest, r2.StateDigest, r1.Events, r2.Events)
	}
}
