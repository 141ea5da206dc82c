package core

import (
	"errors"
	"testing"
	"time"

	"canopus/internal/kvstore"
	"canopus/internal/wire"
)

// fakeDurable records the Durable calls a node makes, keeping each
// root's encoded bytes — what a real WAL would persist — so the test can
// replay them into a fresh replica.
type fakeDurable struct {
	cycles  []uint64
	roots   [][]byte
	syncs   int
	synced  int // records covered by a Sync so far
	syncErr error
}

func (f *fakeDurable) AppendCommit(cycle uint64, root *wire.Proposal) error {
	f.cycles = append(f.cycles, cycle)
	f.roots = append(f.roots, root.AppendTo(nil))
	return nil
}

func (f *fakeDurable) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	f.syncs++
	f.synced = len(f.cycles)
	return nil
}

// durableCluster builds a sim cluster with one fakeDurable per node.
func durableCluster(t *testing.T, o clusterOpts) (*testCluster, []*fakeDurable) {
	t.Helper()
	tc := newTestCluster(t, o)
	fakes := make([]*fakeDurable, len(tc.nodes))
	for i, n := range tc.nodes {
		fakes[i] = &fakeDurable{}
		n.cfg.Durability = fakes[i]
	}
	return tc, fakes
}

// TestDurableLogMatchesCommitOrder pins the core logging contract: every
// committed cycle is appended exactly once, contiguously, in commit
// order, each append covered by a Sync before the turn ends (serial
// mode), and the logged roots replay into a bit-identical replica.
func TestDurableLogMatchesCommitOrder(t *testing.T) {
	tc, fakes := durableCluster(t, clusterOpts{racks: 2, perRack: 3})
	for i := 0; i < 40; i++ {
		tc.submitAt(time.Duration(1+i*3)*time.Millisecond, wire.NodeID(i%6), wr(uint64(100+i%6), uint64(1+i/6), uint64(i%11), uint64(i)))
	}
	tc.run(2 * time.Second)
	tc.requireAgreement()

	for i, f := range fakes {
		if len(f.cycles) == 0 {
			t.Fatalf("node %d logged nothing", i)
		}
		// Contiguous from 1, mirroring the committed stream.
		for j, c := range f.cycles {
			if c != uint64(j+1) {
				t.Fatalf("node %d: append %d has cycle %d (log not contiguous)", i, j, c)
			}
		}
		if got, want := f.cycles, tc.commits[wire.NodeID(i)]; len(got) != len(want) {
			t.Fatalf("node %d logged %d cycles, committed %d", i, len(got), len(want))
		}
		// Serial mode syncs inside every turn that appended: no record is
		// left unsynced once the run quiesces, so an in-sim crash loses
		// nothing that was committed.
		if f.synced != len(f.cycles) {
			t.Fatalf("node %d: %d of %d records unsynced at quiesce", i, len(f.cycles)-f.synced, len(f.cycles))
		}
		if f.syncs == 0 || f.syncs > len(f.cycles) {
			t.Fatalf("node %d: %d syncs for %d records", i, f.syncs, len(f.cycles))
		}
	}

	// The log IS the replica: decoding and replaying node 0's records
	// into a fresh node must reproduce its store exactly. This is the
	// invariant recovery stands on.
	f := fakes[0]
	st := kvstore.NewLogged()
	node := NewNode(Config{Tree: tc.tree, Self: 0}, st, Callbacks{})
	for j := range f.cycles {
		msg, _, err := wire.Decode(f.roots[j])
		if err != nil {
			t.Fatalf("record %d does not decode: %v", j, err)
		}
		if err := node.ReplayCommit(f.cycles[j], msg.(*wire.Proposal)); err != nil {
			t.Fatalf("replay cycle %d: %v", f.cycles[j], err)
		}
	}
	live := tc.stores[0]
	if st.LogLen() != live.LogLen() || st.LogDigest() != live.LogDigest() || st.StateDigest() != live.StateDigest() {
		t.Fatalf("replayed replica diverges: len %d/%d logdigest %x/%x state %x/%x",
			st.LogLen(), live.LogLen(), st.LogDigest(), live.LogDigest(), st.StateDigest(), live.StateDigest())
	}
	if node.Committed() != f.cycles[len(f.cycles)-1] {
		t.Fatalf("replayed watermark %d, logged through %d", node.Committed(), f.cycles[len(f.cycles)-1])
	}
}

// TestDurabilityFailStop pins the error policy: a failing fsync latches
// DurabilityError, stops further appends, and the node keeps serving
// from memory — commits and replica agreement continue.
func TestDurabilityFailStop(t *testing.T) {
	tc, fakes := durableCluster(t, clusterOpts{racks: 1, perRack: 3})
	broken := errors.New("disk on fire")
	fakes[0].syncErr = broken

	for i := 0; i < 20; i++ {
		tc.submitAt(time.Duration(1+i*5)*time.Millisecond, wire.NodeID(i%3), wr(uint64(200+i%3), uint64(1+i/3), uint64(i), uint64(i)))
	}
	tc.run(time.Second)
	tc.requireAgreement()

	if err := tc.nodes[0].DurabilityError(); !errors.Is(err, broken) {
		t.Fatalf("DurabilityError = %v, want the injected fsync failure", err)
	}
	// Fail-stop: exactly one append ever reached the broken log (the one
	// whose Sync failed); the node did not keep writing.
	if len(fakes[0].cycles) != 1 {
		t.Fatalf("broken log saw %d appends after the first failed Sync", len(fakes[0].cycles))
	}
	// Serving from memory: the node kept committing past the failure.
	if got := tc.nodes[0].Committed(); got < 2 {
		t.Fatalf("node 0 committed only to %d after the durability failure", got)
	}
	// Healthy peers were unaffected.
	for i := 1; i < 3; i++ {
		if err := tc.nodes[i].DurabilityError(); err != nil {
			t.Fatalf("node %d durability error: %v", i, err)
		}
		if fakes[i].synced != len(fakes[i].cycles) || len(fakes[i].cycles) == 0 {
			t.Fatalf("node %d log: %d records, %d synced", i, len(fakes[i].cycles), fakes[i].synced)
		}
	}
}
