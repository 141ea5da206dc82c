package core

import (
	"bytes"
	"testing"
	"time"

	"canopus/internal/wire"
)

// txnReq builds one OpTxn request carrying the encoded body.
func txnReq(client, seq uint64, t *wire.Txn) wire.Request {
	return wire.Request{Client: client, Seq: seq, Op: wire.OpTxn, Val: wire.AppendTxn(nil, t)}
}

// TestTxnCommitAppliesAtomically drives a put-if-absent transaction
// through consensus: the CAS passes, both ops land, every replica
// agrees, and the serving node's reply parses as a committed result.
func TestTxnCommitAppliesAtomically(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3})
	txn := wire.Txn{
		Guards: []wire.TxnGuard{{Kind: wire.GuardValueEq, Key: 10, Val: nil}},
		Ops: []wire.TxnOp{
			{Op: wire.OpWrite, Key: 10, Val: []byte("a")},
			{Op: wire.OpWrite, Key: 11, Val: []byte("b")},
		},
	}
	tc.submitAt(time.Millisecond, 0, txnReq(1, 1, &txn))
	tc.run(500 * time.Millisecond)

	tc.requireAgreement()
	for i, st := range tc.stores {
		if string(st.Read(10)) != "a" || string(st.Read(11)) != "b" {
			t.Fatalf("node %d: txn ops not applied: %q %q", i, st.Read(10), st.Read(11))
		}
	}
	if len(tc.replies[0]) != 1 {
		t.Fatalf("serving node replies = %d, want 1", len(tc.replies[0]))
	}
	res, err := wire.ParseTxnResult(tc.replies[0][0].val)
	if err != nil || !res.Committed {
		t.Fatalf("txn reply = %+v (%v), want committed", res, err)
	}
}

// TestTxnAbortLeavesStoreUntouched is the failing-CAS acceptance test:
// an aborted transaction applies nothing, so every replica's store —
// digests included — is byte-identical to a cluster that never saw the
// transaction at all.
func TestTxnAbortLeavesStoreUntouched(t *testing.T) {
	run := func(withTxn bool) *testCluster {
		tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3})
		tc.submitAt(time.Millisecond, 1, wr(2, 1, 20, 77))
		if withTxn {
			txn := wire.Txn{
				Guards: []wire.TxnGuard{{Kind: wire.GuardValueEq, Key: 20, Val: []byte("wrong")}},
				Ops: []wire.TxnOp{
					{Op: wire.OpWrite, Key: 21, Val: []byte("never")},
					{Op: wire.OpDelete, Key: 20},
				},
			}
			tc.submitAt(20*time.Millisecond, 0, txnReq(1, 1, &txn))
		}
		tc.run(500 * time.Millisecond)
		return tc
	}

	with, without := run(true), run(false)
	with.requireAgreement()
	if len(with.replies[0]) != 1 {
		t.Fatalf("txn replies = %d, want 1", len(with.replies[0]))
	}
	res, err := wire.ParseTxnResult(with.replies[0][0].val)
	if err != nil || res.Committed || res.Failed != 0 {
		t.Fatalf("txn reply = %+v (%v), want aborted at guard 0", res, err)
	}
	for i := range with.stores {
		if with.stores[i].LogDigest() != without.stores[i].LogDigest() ||
			with.stores[i].LogLen() != without.stores[i].LogLen() ||
			with.stores[i].StateDigest() != without.stores[i].StateDigest() {
			t.Fatalf("node %d: aborted txn changed the store", i)
		}
		if with.stores[i].Read(21) != nil {
			t.Fatalf("node %d: aborted txn op applied", i)
		}
	}
}

// TestTxnCycleGuard pins GuardCycleLE: a guard against the key's
// last-modified cycle commits when the key is untouched since, aborts
// after an interleaved write bumps the modification cycle past it.
func TestTxnCycleGuard(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3})
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 30, 5))
	// Guard far above any plausible commit cycle for the first write.
	pass := wire.Txn{
		Guards: []wire.TxnGuard{{Kind: wire.GuardCycleLE, Key: 30, Cycle: 1 << 20}},
		Ops:    []wire.TxnOp{{Op: wire.OpWrite, Key: 31, Val: []byte("ok")}},
	}
	// Cycle 0 guard: fails once key 30 has been written at some cycle > 0.
	fail := wire.Txn{
		Guards: []wire.TxnGuard{{Kind: wire.GuardCycleLE, Key: 30, Cycle: 0}},
		Ops:    []wire.TxnOp{{Op: wire.OpWrite, Key: 32, Val: []byte("no")}},
	}
	tc.submitAt(50*time.Millisecond, 0, txnReq(1, 2, &pass))
	tc.submitAt(80*time.Millisecond, 0, txnReq(1, 3, &fail))
	tc.run(500 * time.Millisecond)

	tc.requireAgreement()
	for i, st := range tc.stores {
		if string(st.Read(31)) != "ok" {
			t.Fatalf("node %d: passing cycle guard did not commit", i)
		}
		if st.Read(32) != nil {
			t.Fatalf("node %d: failing cycle guard committed", i)
		}
	}
}

// TestEventsMatchAcrossReplicas watches every node's committed stream
// and checks each replica observes the identical event sequence — same
// cycles, ops, keys and values, in committed total order — and that a
// committed transaction's ops appear while an aborted one's do not.
func TestEventsMatchAcrossReplicas(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3})
	type cycleEvents struct {
		cycle uint64
		evs   []wire.Event
	}
	got := make([][]cycleEvents, len(tc.nodes))
	tc.onCommit = func(id wire.NodeID, c *Commit) {
		if len(c.Events) == 0 {
			return
		}
		cp := make([]wire.Event, len(c.Events))
		for j, ev := range c.Events {
			cp[j] = wire.Event{Op: ev.Op, Key: ev.Key, Val: append([]byte(nil), ev.Val...)}
		}
		got[id] = append(got[id], cycleEvents{cycle: c.Cycle, evs: cp})
	}

	tc.submitAt(time.Millisecond, 0, wr(1, 1, 40, 1))
	tc.submitAt(30*time.Millisecond, 1, wr(2, 1, 41, 2))
	commitTxn := wire.Txn{
		Guards: []wire.TxnGuard{{Kind: wire.GuardValueEq, Key: 42, Val: nil}},
		Ops:    []wire.TxnOp{{Op: wire.OpWrite, Key: 42, Val: []byte("tx")}, {Op: wire.OpDelete, Key: 40}},
	}
	abortTxn := wire.Txn{
		Guards: []wire.TxnGuard{{Kind: wire.GuardValueEq, Key: 41, Val: nil}},
		Ops:    []wire.TxnOp{{Op: wire.OpWrite, Key: 43, Val: []byte("nope")}},
	}
	tc.submitAt(60*time.Millisecond, 2, txnReq(3, 1, &commitTxn))
	tc.submitAt(90*time.Millisecond, 0, txnReq(4, 1, &abortTxn))
	tc.run(500 * time.Millisecond)
	tc.requireAgreement()

	ref := got[0]
	if len(ref) == 0 {
		t.Fatal("no events observed")
	}
	var flat []wire.Event
	for _, ce := range ref {
		flat = append(flat, ce.evs...)
	}
	want := []wire.Event{
		{Op: wire.OpWrite, Key: 40},
		{Op: wire.OpWrite, Key: 41},
		{Op: wire.OpWrite, Key: 42, Val: []byte("tx")},
		{Op: wire.OpDelete, Key: 40},
	}
	if len(flat) != len(want) {
		t.Fatalf("event count = %d, want %d: %+v", len(flat), len(want), flat)
	}
	for i := range want {
		if flat[i].Op != want[i].Op || flat[i].Key != want[i].Key {
			t.Fatalf("event %d = {%v %d}, want {%v %d}", i, flat[i].Op, flat[i].Key, want[i].Op, want[i].Key)
		}
		if want[i].Val != nil && !bytes.Equal(flat[i].Val, want[i].Val) {
			t.Fatalf("event %d val = %q, want %q", i, flat[i].Val, want[i].Val)
		}
	}
	for i := 1; i < len(got); i++ {
		if len(got[i]) != len(ref) {
			t.Fatalf("node %d observed %d event cycles, node 0 observed %d", i, len(got[i]), len(ref))
		}
		for j := range ref {
			if got[i][j].cycle != ref[j].cycle || len(got[i][j].evs) != len(ref[j].evs) {
				t.Fatalf("node %d cycle-events %d diverge from node 0", i, j)
			}
			for k := range ref[j].evs {
				a, b := got[i][j].evs[k], ref[j].evs[k]
				if a.Op != b.Op || a.Key != b.Key || !bytes.Equal(a.Val, b.Val) {
					t.Fatalf("node %d event %d/%d diverges", i, j, k)
				}
			}
		}
	}
}

// TestEphemeralExpiryDeletesOwnedKeys registers a session, writes an
// ephemeral key through a session transaction, then expires the
// session: every replica deletes the key automatically and the
// deletion shows up as an event.
func TestEphemeralExpiryDeletesOwnedKeys(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3})
	var deletions []uint64
	tc.onCommit = func(id wire.NodeID, c *Commit) {
		for _, ev := range c.Events {
			if id == 1 && ev.Op == wire.OpDelete {
				deletions = append(deletions, ev.Key)
			}
		}
	}

	var sess uint64
	tc.sim.At(time.Millisecond, func() {
		tc.nodes[0].RegisterSession(func(id uint64, ok bool) {
			if !ok {
				t.Error("session registration failed")
				return
			}
			sess = id
			txn := wire.Txn{
				Ops: []wire.TxnOp{{Op: wire.OpWrite, Key: 50, Val: []byte("mine"), Ephemeral: true}},
			}
			tc.nodes[0].Submit(txnReq(sess, 1, &txn))
		})
	})
	tc.sim.At(200*time.Millisecond, func() {
		if sess != 0 {
			tc.nodes[0].ExpireSession(sess, nil)
		}
	})
	tc.run(600 * time.Millisecond)

	tc.requireAgreement()
	if sess == 0 {
		t.Fatal("session never registered")
	}
	for i, st := range tc.stores {
		if st.Read(50) != nil {
			t.Fatalf("node %d: ephemeral key survived its session", i)
		}
		if st.OwnerOf(50) != 0 {
			t.Fatalf("node %d: owner binding survived", i)
		}
	}
	found := false
	for _, k := range deletions {
		if k == 50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expiry deletion not observed as an event: %v", deletions)
	}
}

// TestTxnDuplicateResolvesOriginalResult pins exactly-once semantics: a
// retried session transaction (same seq) does not re-apply, and its
// reply carries the original verdict.
func TestTxnDuplicateResolvesOriginalResult(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3})
	var sess uint64
	tc.sim.At(time.Millisecond, func() {
		tc.nodes[0].RegisterSession(func(id uint64, ok bool) {
			if !ok {
				t.Error("session registration failed")
				return
			}
			sess = id
			txn := wire.Txn{
				Guards: []wire.TxnGuard{{Kind: wire.GuardValueEq, Key: 60, Val: nil}},
				Ops:    []wire.TxnOp{{Op: wire.OpWrite, Key: 60, Val: []byte("once")}},
			}
			tc.nodes[0].Submit(txnReq(sess, 1, &txn))
		})
	})
	// Retry the same (session, seq) later — must dedup, not re-run. By
	// then key 60 exists, so a re-evaluation would ABORT; a committed
	// reply proves the cached original answered.
	tc.sim.At(200*time.Millisecond, func() {
		if sess == 0 {
			return
		}
		txn := wire.Txn{
			Guards: []wire.TxnGuard{{Kind: wire.GuardValueEq, Key: 60, Val: nil}},
			Ops:    []wire.TxnOp{{Op: wire.OpWrite, Key: 60, Val: []byte("once")}},
		}
		tc.nodes[0].Submit(txnReq(sess, 1, &txn))
	})
	tc.run(600 * time.Millisecond)

	tc.requireAgreement()
	if sess == 0 {
		t.Fatal("session never registered")
	}
	if len(tc.replies[0]) != 2 {
		t.Fatalf("replies = %d, want 2 (original + retry)", len(tc.replies[0]))
	}
	for i, rec := range tc.replies[0] {
		res, err := wire.ParseTxnResult(rec.val)
		if err != nil || !res.Committed {
			t.Fatalf("reply %d = %+v (%v), want committed", i, res, err)
		}
	}
	for i, st := range tc.stores {
		if string(st.Read(60)) != "once" {
			t.Fatalf("node %d: key 60 = %q", i, st.Read(60))
		}
	}
}
