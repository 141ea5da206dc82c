package recipes_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"canopus/internal/core"
	"canopus/internal/livecluster"
	"canopus/internal/wire"
	"canopus/recipes"
)

// TestMutexCrashedHolderExpires is the crash-recovery story the mutex
// recipe exists for: the holder's node is killed with the lock held, and
// the waiter acquires it anyway — the holder's replicated session
// idle-expires through consensus, the expiry cycle deletes its ephemeral
// acquisition, and the waiter's pre-armed watch fires on that delete.
// No operator action, no unlock from the dead holder.
func TestMutexCrashedHolderExpires(t *testing.T) {
	cluster := startLive(t, livecluster.Config{
		Nodes: 3,
		Node: core.Config{
			CycleInterval: 2 * time.Millisecond, TickInterval: time.Millisecond,
			// Small idle bound so the dead holder's session expires within
			// tens of driven cycles rather than thousands.
			SessionIdleCycles: 64,
		},
		Seed: 41,
	})
	// The holder is pinned to node 0 — when that node dies, so does the
	// holder's connectivity (a real crashed process). The waiter and the
	// traffic driver live on the survivors.
	holder := dial(t, cluster, 0)
	waiter := dial(t, cluster, 1, 2)
	driver := dial(t, cluster, 2, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const lockKey = 700
	mHold := recipes.NewMutex(holder, lockKey)
	if err := mHold.Lock(ctx); err != nil {
		t.Fatal(err)
	}

	mWait := recipes.NewMutex(waiter, lockKey)
	acquired := make(chan error, 1)
	go func() { acquired <- mWait.Lock(ctx) }()

	// Let the waiter arm its watch and lose its CAS before the crash.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-acquired:
		t.Fatalf("waiter acquired a held lock (err=%v)", err)
	default:
	}

	cluster.Crash(0)

	// Cycles are self-clocked: with no traffic there are no commits, and
	// session idle expiry is measured in committed cycles. Background
	// reads stand in for the rest of the workload and keep the clock
	// running.
	driveDone := make(chan struct{})
	defer close(driveDone)
	go func() {
		for {
			select {
			case <-driveDone:
				return
			default:
			}
			rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
			_, _ = driver.Get(rctx, 999) // ignore errors during takeover
			rcancel()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("waiter failed to acquire after holder crash: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("holder's session never expired: waiter still blocked")
	}
	if err := mWait.Unlock(ctx); err != nil {
		t.Fatalf("new holder's Unlock: %v", err)
	}
}

// TestElectionUniquenessUnderPartition cuts the elected leader's node
// off from every other node and asserts the two safety properties that
// make the recipe usable: leadership transfers to a connected candidate
// once the old leader's session expires, and no observation ever sees
// the deposed leader again after the new one is first observed — at
// most one leader at every committed cycle, before, during, and after
// the partition.
func TestElectionUniquenessUnderPartition(t *testing.T) {
	c := startLive(t, livecluster.Config{
		Node: core.Config{
			CycleInterval: time.Millisecond, TickInterval: time.Millisecond,
			SessionIdleCycles: 64,
		},
		Seed:  29,
		Chaos: true,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const key = 800
	// alice's client reaches node 0 only: when the node is cut off, so
	// is she.
	alice := recipes.NewElection(dial(t, c, 0), key, []byte("alice"))
	bob := recipes.NewElection(dial(t, c, 3), key, []byte("bob"))
	observer := recipes.NewElection(dial(t, c, 4), key, []byte("observer"))

	if err := alice.Campaign(ctx); err != nil {
		t.Fatal(err)
	}
	if name, err := observer.Leader(ctx); err != nil || !bytes.Equal(name, []byte("alice")) {
		t.Fatalf("Leader = %q, %v; want alice", name, err)
	}

	elected := make(chan error, 1)
	go func() { elected <- bob.Campaign(ctx) }()
	time.Sleep(50 * time.Millisecond) // let bob arm his watch and lose the CAS

	// Cut node 0 — alice's node — off from the rest of the deployment.
	// Its super-leaf peers retain quorum, depose it, and cycles resume
	// without it; alice can no longer reach consensus at all.
	c.Chaos().Partition([]wire.NodeID{0}, []wire.NodeID{1, 2, 3, 4, 5})

	// Observe from a connected node until the handover completes. The
	// polling reads double as the background traffic that keeps cycles —
	// and with them the idle-expiry clock — advancing. Safety: once bob
	// is observed leading, alice must never be observed again.
	sawBob := false
	deadline := time.After(60 * time.Second)
	for done := false; !done; {
		select {
		case err := <-elected:
			if err != nil {
				t.Fatalf("bob's campaign failed: %v", err)
			}
			done = true
		case <-deadline:
			t.Fatal("bob never elected after the partition")
		default:
		}
		rctx, rcancel := context.WithTimeout(ctx, 2*time.Second)
		name, err := observer.Leader(rctx)
		rcancel()
		if err == nil {
			switch {
			case bytes.Equal(name, []byte("bob")):
				sawBob = true
			case bytes.Equal(name, []byte("alice")):
				if sawBob {
					t.Fatal("alice observed leading after bob took over")
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	if lead, err := bob.IsLeader(ctx); err != nil || !lead {
		t.Fatalf("bob IsLeader = %v, %v", lead, err)
	}
	if name, err := observer.Leader(ctx); err != nil || !bytes.Equal(name, []byte("bob")) {
		t.Fatalf("Leader = %q, %v; want bob", name, err)
	}
	// The deposed leader cannot even resign: its node is outside the
	// deployment and none of its submissions can commit.
	rctx, rcancel := context.WithTimeout(ctx, time.Second)
	defer rcancel()
	if err := alice.Resign(rctx); err == nil {
		t.Fatal("partitioned ex-leader resigned successfully")
	} else if errors.Is(err, recipes.ErrNotHeld) {
		// Acceptable too: a rejection that proves the txn did not apply.
	}
}

// TestMutexContendedWholeLeafPartition is the leaf-granular mutex story:
// the lock holder's entire rack is cut off mid-hold. The survivors evict
// the dark super-leaf (LeafTimeout), consensus resumes without it, the
// holder's replicated session idle-expires, and the contenders take the
// lock over — each handoff exactly once, never two holders in the
// critical section. After the heal one of the evicted rack's nodes
// rejoins through the join protocol and must be able to take the same
// lock: readmission restores full service, not just membership.
func TestMutexContendedWholeLeafPartition(t *testing.T) {
	c := startLive(t, livecluster.Config{
		SuperLeaves: [][]wire.NodeID{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}},
		Node: core.Config{
			CycleInterval: 2 * time.Millisecond, TickInterval: time.Millisecond,
			SessionIdleCycles: 64,
			// Evictions armed: without LeafTimeout the cut rack wedges
			// the merge forever and no session can expire at all.
			LeafTimeout:  300 * time.Millisecond,
			FetchTimeout: 50 * time.Millisecond,
		},
		Seed:  37,
		Chaos: true,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const lockKey = 900
	// Holder on the doomed rack; contenders spread over the survivors.
	holderCl := dial(t, c, 6)
	holder := recipes.NewMutex(holderCl, lockKey)
	if err := holder.Lock(ctx); err != nil {
		t.Fatal(err)
	}

	// Keep the holder's session refreshed until the cut: idle expiry is
	// 64 cycles, the background reads below drive cycles back to back,
	// and only session-bound mutations touch the activity clock (reads
	// are sessionless). Back-to-back writes through the holder's own
	// session bound the refresh gap to one commit round-trip; the session
	// must die because the rack goes dark, not because the holder sat
	// quietly before the fault.
	keepDone := make(chan struct{})
	go func() {
		for {
			select {
			case <-keepDone:
				return
			default:
			}
			kctx, kcancel := context.WithTimeout(ctx, time.Second)
			_ = holderCl.Put(kctx, 998, []byte("ka"))
			kcancel()
		}
	}()

	// Background reads keep cycles (and the idle-expiry clock) running.
	driveDone := make(chan struct{})
	defer close(driveDone)
	go func() {
		driver := dial(t, c, 4)
		for {
			select {
			case <-driveDone:
				return
			default:
			}
			rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
			_, _ = driver.Get(rctx, 999)
			rcancel()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Three contenders; inCS asserts mutual exclusion at every handoff.
	var inCS atomic.Int32
	acquired := make(chan int, 3)
	errs := make(chan error, 3)
	for i, node := range []int{0, 1, 3} {
		i, node := i, node
		m := recipes.NewMutex(dial(t, c, node), lockKey)
		go func() {
			if err := m.Lock(ctx); err != nil {
				errs <- fmt.Errorf("contender %d: %w", i, err)
				return
			}
			if n := inCS.Add(1); n != 1 {
				errs <- fmt.Errorf("contender %d entered with %d holders in the critical section", i, n)
				return
			}
			time.Sleep(5 * time.Millisecond)
			inCS.Add(-1)
			acquired <- i
			if err := m.Unlock(ctx); err != nil {
				errs <- fmt.Errorf("contender %d unlock: %w", i, err)
			}
		}()
	}

	// Let the contenders lose their CAS and arm watches, then cut the
	// holder's whole rack off. Heal well after the eviction settles.
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-errs:
		t.Fatal(err)
	case i := <-acquired:
		t.Fatalf("contender %d acquired a held lock before the fault", i)
	default:
	}
	c.Chaos().Partition([]wire.NodeID{6, 7, 8}, []wire.NodeID{0, 1, 2, 3, 4, 5})
	healed := time.AfterFunc(2*time.Second, c.Chaos().Heal)
	defer healed.Stop()
	close(keepDone)

	// All three contenders must eventually pass through the critical
	// section: the first by session-expiry takeover, the rest by normal
	// handoff. Any mutual-exclusion violation surfaces on errs.
	got := map[int]bool{}
	for len(got) < 3 {
		select {
		case err := <-errs:
			t.Fatal(err)
		case i := <-acquired:
			if got[i] {
				t.Fatalf("contender %d acquired twice", i)
			}
			got[i] = true
		case <-time.After(90 * time.Second):
			t.Fatalf("handoff stalled: %d of 3 contenders served", len(got))
		}
	}

	// Post-heal: take the lock through one evicted-rack node. The healed
	// node learns its rack's eviction and rejoins in place as a fresh
	// joiner; the loop waits for that.
	if healed.Stop() {
		c.Chaos().Heal()
	}
	rejoined := recipes.NewMutex(dial(t, c, 7), lockKey)
	deadline := time.Now().Add(90 * time.Second)
	for {
		rctx, rcancel := context.WithTimeout(ctx, 2*time.Second)
		err := rejoined.Lock(rctx)
		rcancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined node never acquired the lock: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := rejoined.Unlock(ctx); err != nil {
		t.Fatalf("rejoined node's unlock: %v", err)
	}
}
