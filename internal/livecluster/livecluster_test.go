package livecluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/wire"
)

func startCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := Start(Config{
		Nodes: nodes,
		Node:  core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func dialClient(t *testing.T, c *Cluster, nodes ...int) *client.Client {
	t.Helper()
	var eps []string
	for _, i := range nodes {
		eps = append(eps, c.ClientAddr(i))
	}
	cl, err := client.New(client.Config{Endpoints: eps, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestClientPutGetDelete(t *testing.T) {
	c := startCluster(t, 3)
	defer c.Stop(5 * time.Second)
	ctx := context.Background()

	cl := dialClient(t, c, 0)
	if err := cl.Put(ctx, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	val, err := cl.Get(ctx, 7)
	if err != nil || string(val) != "hello" {
		t.Fatalf("Get(7) = %q, %v", val, err)
	}
	if _, err := cl.Get(ctx, 99); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("Get(99) err = %v, want ErrNotFound", err)
	}
	if err := cl.Delete(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, 7); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("Get(7) after delete err = %v, want ErrNotFound", err)
	}

	// A write through node 0 is readable through node 2 once committed
	// (both reads linearize after the write's cycle).
	if err := cl.Put(ctx, 8, []byte("cross")); err != nil {
		t.Fatal(err)
	}
	cl2 := dialClient(t, c, 2)
	val, err = cl2.Get(ctx, 8)
	if err != nil || string(val) != "cross" {
		t.Fatalf("Get(8) via node 2 = %q, %v", val, err)
	}
}

func TestClientAsyncPipelined(t *testing.T) {
	c := startCluster(t, 3)
	defer c.Stop(5 * time.Second)

	cl := dialClient(t, c, 1)
	// Issue many writes without waiting, then verify every reply arrives.
	const n = 500
	futs := make([]*client.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = cl.PutAsync(uint64(i), []byte(fmt.Sprintf("v%d", i)))
	}
	ctx := context.Background()
	for i, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	val, err := cl.Get(ctx, n-1)
	if err != nil || string(val) != fmt.Sprintf("v%d", n-1) {
		t.Fatalf("Get(%d) = %q, %v", n-1, val, err)
	}
}

func TestClientBatch(t *testing.T) {
	c := startCluster(t, 3)
	defer c.Stop(5 * time.Second)
	ctx := context.Background()

	cl := dialClient(t, c, 0)
	if err := cl.Put(ctx, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Batch(ctx, []client.Op{
		{Kind: client.OpPut, Key: 2, Val: []byte("two")},
		{Kind: client.OpGet, Key: 1},
		{Kind: client.OpGet, Key: 404},
		{Kind: client.OpDelete, Key: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("batch returned %d results", len(res))
	}
	if res[0].Err != nil || !res[0].Found {
		t.Fatalf("batch put: %+v", res[0])
	}
	if string(res[1].Val) != "one" {
		t.Fatalf("batch get: %+v", res[1])
	}
	if res[2].Found || res[2].Err != nil {
		t.Fatalf("batch miss: %+v", res[2])
	}
	if _, err := cl.Get(ctx, 1); !errorsIsNotFound(err) {
		t.Fatalf("key 1 survived batch delete: %v", err)
	}
}

func errorsIsNotFound(err error) bool { return errors.Is(err, client.ErrNotFound) }

// TestStaleReadsSkipConsensus is the dual-path acceptance check: Stale
// reads are served from committed state without advancing the consensus
// cycle count, while Linearizable reads ride a cycle and observe the
// latest committed write.
func TestStaleReadsSkipConsensus(t *testing.T) {
	c := startCluster(t, 3)
	defer c.Stop(5 * time.Second)
	ctx := context.Background()

	cl := dialClient(t, c, 0)
	if err := cl.Put(ctx, 7, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	committedAt := func(i int) uint64 {
		var k uint64
		c.Runner(i).Invoke(func() { k = c.Node(i).Committed() })
		return k
	}
	// The Put is acknowledged while the cycles pipelined behind its own
	// are still in flight: sample the watermark only once every node has
	// committed all it started, or their commits are blamed on the reads.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		idle := true
		for i := 0; i < 3; i++ {
			c.Runner(i).Invoke(func() {
				n := c.Node(i)
				idle = idle && n.Started() == n.Committed() && n.Committed() == c.Node(0).Ordered()
			})
		}
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not go idle after the write")
		}
	}
	before := committedAt(0)

	// A burst of Stale reads: all answered, none starts a cycle.
	for i := 0; i < 50; i++ {
		val, err := cl.Get(ctx, 7, client.WithConsistency(client.Stale))
		if err != nil || string(val) != "v1" {
			t.Fatalf("stale read %d = %q, %v", i, val, err)
		}
	}
	// Idle-wait one cycle interval: a cycle triggered by the reads would
	// have committed by now.
	time.Sleep(20 * time.Millisecond)
	if after := committedAt(0); after != before {
		t.Fatalf("stale reads advanced the consensus cycle: %d -> %d", before, after)
	}

	// A later write through another node...
	cl2 := dialClient(t, c, 1)
	if err := cl2.Put(ctx, 7, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// ...is observed by a Linearizable read at node 0 (which DOES ride a
	// consensus cycle).
	val, err := cl.Get(ctx, 7)
	if err != nil || string(val) != "v2" {
		t.Fatalf("linearizable read after remote write = %q, %v", val, err)
	}
	if after := committedAt(0); after == before {
		t.Fatal("linearizable read did not advance the consensus cycle")
	}
}

// TestSequentialReadWaitsForCycle pins the session guarantee: a
// Sequential read carrying a commit cycle observed elsewhere is not
// answered from older state, even through a different replica.
func TestSequentialReadWaitsForCycle(t *testing.T) {
	c := startCluster(t, 3)
	defer c.Stop(5 * time.Second)
	ctx := context.Background()

	clA := dialClient(t, c, 0)
	if err := clA.Put(ctx, 9, []byte("newest")); err != nil {
		t.Fatal(err)
	}
	cycle := clA.LastCycle()
	if cycle == 0 {
		t.Fatal("write reported no commit cycle")
	}

	// A fresh client session against another replica, seeded with the
	// observed cycle: the read must reflect at least that state.
	clB := dialClient(t, c, 2)
	val, err := clB.Get(ctx, 9,
		client.WithConsistency(client.Sequential), client.WithMinCycle(cycle))
	if err != nil || string(val) != "newest" {
		t.Fatalf("sequential read = %q, %v", val, err)
	}
	if clB.LastCycle() < cycle {
		t.Fatalf("session clock %d did not absorb the read timestamp %d", clB.LastCycle(), cycle)
	}
}

func TestGracefulStopDrainsInFlight(t *testing.T) {
	c := startCluster(t, 3)
	cl := dialClient(t, c, 0)

	// Establish the replicated session first (one committed mutation), so
	// the burst below goes straight to the server instead of parking
	// behind the registration round-trip.
	if err := cl.Put(context.Background(), 999, []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// Pipeline a burst and immediately stop the cluster: every accepted
	// request must still be answered (no torn frames, no lost replies).
	const n = 200
	var wg sync.WaitGroup
	var okCount, errCount int
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		cl.Async(client.Op{Kind: client.OpPut, Key: uint64(i), Val: []byte("x")},
			func(_ client.Result, err error) {
				defer wg.Done()
				mu.Lock()
				if err == nil {
					okCount++
				} else {
					errCount++
				}
				mu.Unlock()
			})
	}
	// Let the burst reach the server before stopping: drain must answer
	// accepted requests, not merely reject unseen ones.
	waitUntil := time.Now().Add(2 * time.Second)
	for c.Port(0).Outstanding() == 0 && time.Now().Before(waitUntil) {
		mu.Lock()
		started := okCount > 0
		mu.Unlock()
		if started {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !c.Stop(10 * time.Second) {
		t.Fatal("cluster did not drain")
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if okCount+errCount != n {
		t.Fatalf("%d of %d requests unanswered", n-okCount-errCount, n)
	}
	// Most of the burst should have been accepted and answered OK; only
	// requests arriving after draining began may be rejected.
	if okCount == 0 {
		t.Fatalf("no request succeeded (ok=%d err=%d)", okCount, errCount)
	}
}

func TestRejectedWhileDraining(t *testing.T) {
	c := startCluster(t, 3)
	defer c.Stop(time.Second)
	cl := dialClient(t, c, 0)
	ctx := context.Background()
	if err := cl.Put(ctx, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	c.Port(0).Stop(time.Second)
	// The server rejects with a draining code; the single-endpoint
	// client retries once against the same (now closed) port and fails.
	if err := cl.Put(ctx, 2, []byte("b")); err == nil {
		t.Fatal("write accepted after drain began")
	}
}

// TestClusterSubmitLocal drives the socketless Cluster.Submit path (the
// canopus.Cluster interface backend) end to end.
func TestClusterSubmitLocal(t *testing.T) {
	c := startCluster(t, 3)
	defer c.Stop(5 * time.Second)

	done := make(chan []byte, 1)
	c.Submit(0, wire.OpWrite, 3, []byte("local"), func(_ []byte, ok bool) {
		if !ok {
			t.Error("write rejected")
		}
		done <- nil
	})
	<-done
	c.Submit(2, wire.OpRead, 3, nil, func(val []byte, ok bool) {
		if !ok {
			t.Error("read rejected")
		}
		v := make([]byte, len(val))
		copy(v, val)
		done <- v
	})
	if got := <-done; string(got) != "local" {
		t.Fatalf("local read = %q", got)
	}
}

// TestStopRejectsParkedSequentialReads pins graceful-shutdown behavior
// for Sequential reads parked on a future commit cycle: they must not
// burn the drain timeout, and the client gets a draining rejection
// instead of silence.
func TestStopRejectsParkedSequentialReads(t *testing.T) {
	c := startCluster(t, 3)
	cl := dialClient(t, c, 0)

	// A Sequential read ahead of anything committed (but within the
	// sanity bound) parks at the node (nothing else generates cycles).
	got := make(chan error, 1)
	cl.Async(client.Op{Kind: client.OpGet, Key: 1, Consistency: client.Sequential, MinCycle: 1 << 15},
		func(_ client.Result, err error) { got <- err })
	deadline := time.Now().Add(2 * time.Second)
	for c.Port(0).Outstanding() == 0 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}

	start := time.Now()
	drained := c.Stop(5 * time.Second)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Stop burned %v on a parked read", elapsed)
	}
	if !drained {
		t.Fatal("parked Sequential read failed the drain")
	}
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("parked read reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked read never completed client-side")
	}
}

// TestSessionIdleReclaimedThroughConsensus pins session GC: a session
// with no committed mutation for SessionIdleCycles consensus cycles is
// expired by an update riding a proposal — every replica drops it at
// the same commit boundary, with no local timers involved — and the
// owning client transparently re-registers on its next mutation.
func TestSessionIdleReclaimedThroughConsensus(t *testing.T) {
	c, err := Start(Config{
		Nodes: 3,
		Node: core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond,
			SessionIdleCycles: 8},
		Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	cl := dialClient(t, c, 0)
	ctx := context.Background()
	if err := cl.Put(ctx, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	sess := cl.SessionID()
	if sess == 0 {
		t.Fatal("no session registered")
	}

	// Drive consensus cycles WITHOUT touching the session (linearizable
	// reads ride cycles but carry no session identity) until the idle
	// bound reclaims it on every replica.
	cl2 := dialClient(t, c, 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cl2.Get(ctx, 1); err != nil {
			t.Fatal(err)
		}
		gone := true
		for i := 0; i < 3 && gone; i++ {
			c.Runner(i).Invoke(func() {
				if c.Node(i).Sessions().Has(sess) {
					gone = false
				}
			})
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never reclaimed through consensus")
		}
	}

	// The next mutation was never failover-retried, so the client
	// re-registers transparently instead of surfacing the expiry.
	if err := cl.Put(ctx, 2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if ns := cl.SessionID(); ns == 0 || ns == sess {
		t.Fatalf("client did not re-register after idle reclamation: %#x (old %#x)", ns, sess)
	}
}

// TestCrashCompletesLocalSubmits pins the Cluster.Submit contract on
// crash: operations in flight at a crashed node complete their done
// callbacks with ok=false instead of hanging forever.
func TestCrashCompletesLocalSubmits(t *testing.T) {
	// A long cycle interval parks the submissions in the accumulator so
	// the crash deterministically catches them in flight.
	c, err := Start(Config{
		Nodes: 3,
		Node:  core.Config{CycleInterval: time.Minute, TickInterval: 5 * time.Millisecond},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(time.Second)

	const n = 5
	results := make(chan bool, n)
	for i := 0; i < n; i++ {
		c.Submit(0, wire.OpWrite, uint64(i), []byte("x"), func(_ []byte, ok bool) {
			results <- ok
		})
	}
	c.Crash(0)
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case ok := <-results:
			if ok {
				t.Fatal("crashed node reported a committed operation")
			}
		case <-deadline:
			t.Fatalf("only %d of %d done callbacks fired after crash", i, n)
		}
	}
}
