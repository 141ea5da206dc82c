package core

import (
	"testing"
	"time"

	"canopus/internal/lincheck"
	"canopus/internal/wire"
)

func TestWriteLeaseFastReads(t *testing.T) {
	cfg := Config{WriteLeases: true}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg})
	// A read with no lease in flight answers immediately (no cycle).
	tc.submitAt(time.Millisecond, 2, rd(9, 1, 77))
	tc.run(5 * time.Millisecond)
	if got := len(tc.replies[2]); got != 1 {
		t.Fatalf("fast read did not answer immediately: %d replies", got)
	}
	if tc.nodes[2].Started() != 0 {
		t.Fatal("fast read started a consensus cycle")
	}
}

func TestWriteLeaseAcquisitionAndWrite(t *testing.T) {
	cfg := Config{WriteLeases: true}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg})
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 50, 5))
	tc.run(2 * time.Second)
	// The write commits after lease acquisition (extra cycle).
	for i, st := range tc.stores {
		if v := st.Read(50); len(v) != 8 || v[0] != 5 {
			t.Fatalf("node %d: key 50 = %v", i, v)
		}
	}
	if got := len(tc.replies[0]); got != 1 {
		t.Fatalf("write replies = %d", got)
	}
}

func TestWriteLeaseDefersConflictingReads(t *testing.T) {
	cfg := Config{WriteLeases: true, LeaseTTL: 4}
	tc := newTestCluster(t, clusterOpts{racks: 2, perRack: 3, cfg: cfg})
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 50, 5))
	// While the lease is active, a read at another node is deferred to a
	// cycle boundary — and must see the committed write.
	tc.submitAt(400*time.Millisecond, 3, rd(2, 1, 50))
	tc.run(3 * time.Second)
	reps := tc.replies[3]
	if len(reps) != 1 || reps[0].req.Op != wire.OpRead {
		t.Fatalf("read replies = %v", reps)
	}
	if v := reps[0].val; len(v) != 8 || v[0] != 5 {
		t.Fatalf("deferred read saw %v, want 5", v)
	}
	tc.requireAgreement()
}

// TestWriteLeaseFastReadOnGoroutineStage runs the §7.2 fast path on the
// driver live nodes use: with the apply stage on a goroutine of its own, a
// read of a key whose lease has lapsed is a stage read at the ordered
// watermark — it returns the last committed write and starts no cycle.
// Write leases no longer choose a commit path; this is the case that used
// to force the in-turn one.
func TestWriteLeaseFastReadOnGoroutineStage(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{racks: 1, perRack: 3, cfg: Config{WriteLeases: true, LeaseTTL: 2}, goStage: true})
	replies := tc.replies // written on the stages' goroutines under tc.mu
	step := func(until time.Duration) {
		for now := tc.sim.Now() + time.Millisecond; now <= until; now += time.Millisecond {
			tc.run(now)
			for _, n := range tc.nodes {
				n.DrainApply()
			}
		}
	}

	// A write to key 50 (lease, then the write), then writes to other keys
	// until key 50's lease has run out.
	tc.submitAt(time.Millisecond, 0, wr(1, 1, 50, 5))
	for i := uint64(0); i < 6; i++ {
		tc.submitAt(time.Duration(200+100*i)*time.Millisecond, 0, wr(1, 2+i, 60+i, i))
	}
	step(time.Second)
	tc.mu.Lock()
	answered := len(replies[0])
	tc.mu.Unlock()
	if answered != 7 {
		t.Fatalf("%d of 7 writes answered", answered)
	}

	started := tc.nodes[1].Started()
	tc.submitAt(tc.sim.Now()+time.Millisecond, 1, rd(9, 1, 50))
	step(tc.sim.Now() + 5*time.Millisecond)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if got := replies[1]; len(got) != 1 || len(got[0].val) != 8 || got[0].val[0] != 5 {
		t.Fatalf("fast-path read answered %v, want one reply with the committed 5", got)
	}
	if tc.nodes[1].Started() != started {
		t.Fatal("fast-path read started a consensus cycle")
	}
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
