package harness

import (
	"testing"
)

// TestChaosReplicaEquality runs the chaos scenario catalog and pins
// replica equality on the one commit path: replicas that finished at the
// same committed cycle agree on StateDigest and on LogLen/LogDigest,
// restarted or not — a joiner installs its sponsor's log chains with the
// image, and a disk recovery restores them from its snapshot — and a
// replay of the spec is bit-identical, per-replica digests included.
func TestChaosReplicaEquality(t *testing.T) {
	scenarios := Scenarios(23)
	if testing.Short() {
		scenarios = QuickScenarios(23)
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			run := RunChaos(sc.Spec)
			if !run.Linearizable {
				t.Fatalf("history not linearizable (%d ops)", len(run.History))
			}

			byCycle := map[uint64]ReplicaState{}
			for _, rep := range run.Replicas {
				ref, ok := byCycle[rep.Committed]
				if !ok {
					byCycle[rep.Committed] = rep
					continue
				}
				if rep.StateDigest != ref.StateDigest {
					t.Fatalf("replicas %v and %v at cycle %d disagree on state: %x vs %x",
						ref.Node, rep.Node, rep.Committed, ref.StateDigest, rep.StateDigest)
				}
				if rep.LogDigest != ref.LogDigest || rep.LogLen != ref.LogLen {
					t.Fatalf("replicas %v and %v at cycle %d disagree on apply log: %d/%x vs %d/%x",
						ref.Node, rep.Node, rep.Committed, ref.LogLen, ref.LogDigest, rep.LogLen, rep.LogDigest)
				}
			}

			again := RunChaos(sc.Spec)
			if again.Events != run.Events || again.Commits != run.Commits ||
				again.CommitDigest != run.CommitDigest || again.StateDigest != run.StateDigest {
				t.Fatalf("replay diverged: events %d/%d commits %d/%d digest %x/%x state %x/%x",
					run.Events, again.Events, run.Commits, again.Commits,
					run.CommitDigest, again.CommitDigest, run.StateDigest, again.StateDigest)
			}
			if len(again.Replicas) != len(run.Replicas) {
				t.Fatalf("replay replica count %d != %d", len(again.Replicas), len(run.Replicas))
			}
			for i := range run.Replicas {
				if again.Replicas[i] != run.Replicas[i] {
					t.Fatalf("replay diverged at replica %d: %+v vs %+v",
						i, again.Replicas[i], run.Replicas[i])
				}
			}
		})
	}
}
