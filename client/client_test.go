package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/kvstore"
	"canopus/internal/livecluster"
)

func TestNewValidatesConfig(t *testing.T) {
	if _, err := client.New(client.Config{}); err == nil {
		t.Fatal("New accepted an endpoint-less config")
	}
}

// waitApplied blocks until each of the given nodes has applied every
// cycle any of them has ordered so far. A reply proves that the SERVING
// node committed the operation; the other replicas commit the same cycle
// in their own time, so a test that inspects them right after an ack must
// wait for them first.
func waitApplied(t *testing.T, c *livecluster.Cluster, nodes ...int) {
	t.Helper()
	var target uint64
	for _, i := range nodes {
		target = max(target, c.Node(i).Ordered())
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, i := range nodes {
		for c.Node(i).Committed() < target {
			if time.Now().After(deadline) {
				t.Fatalf("node %d has applied cycle %d, want %d", i, c.Node(i).Committed(), target)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestClusterDown(t *testing.T) {
	cl, err := client.New(client.Config{
		Endpoints:   []string{"127.0.0.1:1"}, // reserved port: nothing listens
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(context.Background(), 1, []byte("x")); !errors.Is(err, client.ErrClusterDown) {
		t.Fatalf("err = %v, want ErrClusterDown", err)
	}
}

func TestTimeout(t *testing.T) {
	// A listener that accepts and then never answers: the dial succeeds,
	// the request goes unanswered, and the context deadline maps to
	// ErrTimeout.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var held []net.Conn
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	cl, err := client.New(client.Config{Endpoints: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.Get(ctx, 1); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The configured RequestTimeout applies when the context has no
	// deadline.
	cl2, err := client.New(client.Config{
		Endpoints:      []string{ln.Addr().String()},
		RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Get(context.Background(), 1); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout from RequestTimeout", err)
	}
}

func TestClosedClient(t *testing.T) {
	cl, err := client.New(client.Config{Endpoints: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := cl.Put(context.Background(), 1, nil); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestFailoverRetriesPendingOpsOnce crashes the connected node with a
// pipeline of linearizable writes in flight and asserts the client
// fails over to another endpoint, retrying every pending operation
// exactly once — and that nothing is applied twice (checked through the
// surviving replicas' apply-log lengths and the per-key sequence
// values).
func TestFailoverRetriesPendingOpsOnce(t *testing.T) {
	// A long cycle interval parks submitted operations in the serving
	// node's accumulator: the crash deterministically happens BEFORE any
	// of them enters a consensus cycle, so the retry is the only path to
	// commitment and duplicate application would be visible.
	const cycleEvery = 2 * time.Second
	c, err := livecluster.Start(livecluster.Config{
		Nodes:        3,
		Node:         core.Config{CycleInterval: cycleEvery, TickInterval: 5 * time.Millisecond},
		Seed:         11,
		LoggedStores: true, // the no-duplicate check below reads LogLen
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	cl, err := client.New(client.Config{
		Endpoints:      []string{c.ClientAddr(0), c.ClientAddr(1), c.ClientAddr(2)},
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Establish the replicated session (and one committed write) before
	// the pipeline, so the crash window below holds exactly the n
	// pipelined ops.
	if err := cl.Put(ctx, 999, []byte("session-up")); err != nil {
		t.Fatal(err)
	}

	// Pipeline N writes whose values encode their sequence numbers.
	const n = 20
	futs := make([]*client.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = cl.PutAsync(uint64(i), []byte(fmt.Sprintf("seq-%d", i)))
	}

	// Wait until node 0 has accepted the whole pipeline, then crash it
	// mid-stream (the next cycle is most of cycleEvery away).
	deadline := time.Now().Add(cycleEvery / 2)
	for c.Port(0).Outstanding() < n {
		if time.Now().After(deadline) {
			t.Fatalf("node 0 accepted only %d of %d ops", c.Port(0).Outstanding(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	c.Crash(0)

	// Every pending operation completes through the failover endpoint.
	for i, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("op %d never completed after failover: %v", i, err)
		}
	}

	// Exactly-once retry accounting: one connection failover, each of
	// the n pending ops re-sent exactly once.
	st := cl.Stats()
	if st.Retries != n {
		t.Fatalf("retries = %d, want %d (exactly once per pending op)", st.Retries, n)
	}
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}

	// No duplicate application: each surviving replica applied exactly
	// n+1 writes (the session-establishing one plus the pipeline), and
	// every key holds its own sequence value.
	waitApplied(t, c, 1, 2)
	for _, node := range []int{1, 2} {
		var logLen uint64
		var vals [n][]byte
		c.InspectStore(node, func(st *kvstore.Store) {
			logLen = st.LogLen()
			for i := 0; i < n; i++ {
				vals[i] = st.Read(uint64(i))
			}
		})
		if logLen != n+1 {
			t.Fatalf("node %d applied %d writes, want %d (duplicate or lost application)", node, logLen, n+1)
		}
		for i := 0; i < n; i++ {
			if want := fmt.Sprintf("seq-%d", i); string(vals[i]) != want {
				t.Fatalf("node %d key %d = %q, want %q", node, i, vals[i], want)
			}
		}
	}

	// The client session remains usable against the surviving nodes
	// without further failovers: a Stale read is served from committed
	// state immediately (no extra consensus cycle at this long cycle
	// interval).
	val, err := cl.Get(ctx, n-1, client.WithConsistency(client.Stale))
	if err != nil || string(val) != fmt.Sprintf("seq-%d", n-1) {
		t.Fatalf("post-failover stale read = %q, %v", val, err)
	}
	if got := cl.Stats().Failovers; got != 1 {
		t.Fatalf("failovers after recovery = %d, want still 1", got)
	}
}

// TestExactlyOnceAcrossReplyLoss is the acceptance test for replicated
// client sessions: the reply-loss race is injected deterministically
// (the serving node commits and applies a pipeline of writes but its
// replies are discarded), the node then crashes, and the client's
// failover retry re-submits operations that ALREADY committed. Every
// retry must complete from the cached session reply, and the apply logs
// on every surviving replica must show exactly one apply per operation
// — zero duplicates.
func TestExactlyOnceAcrossReplyLoss(t *testing.T) {
	c, err := livecluster.Start(livecluster.Config{
		Nodes:        3,
		Node:         core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:         19,
		LoggedStores: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	cl, err := client.New(client.Config{
		Endpoints:      []string{c.ClientAddr(0), c.ClientAddr(1), c.ClientAddr(2)},
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Establish the session with one committed write (all replicas log
	// it), so the window below contains exactly the pipelined ops.
	if err := cl.Put(ctx, 999, []byte("session-up")); err != nil {
		t.Fatal(err)
	}
	if cl.SessionID() == 0 {
		t.Fatal("no replicated session after first mutation")
	}
	logLenAt := func(node int) uint64 {
		var n uint64
		c.InspectStore(node, func(st *kvstore.Store) { n = st.LogLen() })
		return n
	}
	waitApplied(t, c, 0, 1, 2) // node 0 acked the write; base must include it
	base := logLenAt(1)

	// Inject the reply-loss fault, then pipeline writes through node 0:
	// they commit cluster-wide, but the client never hears back.
	c.Port(0).SetDropReplies(true)
	const n = 10
	futs := make([]*client.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = cl.PutAsync(uint64(i), []byte(fmt.Sprintf("v-%d", i)))
	}

	// Wait until a surviving replica has applied the whole pipeline: the
	// ops are now committed, their replies lost — the exact crash window
	// that used to re-apply on retry.
	deadline := time.Now().Add(10 * time.Second)
	for logLenAt(1) < base+n {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not commit: log %d, want %d", logLenAt(1), base+n)
		}
		time.Sleep(time.Millisecond)
	}
	c.Crash(0)

	// Every future completes through the failover endpoint — answered
	// from the dedup table's cached replies, not by re-applying.
	for i, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("op %d not answered from cached reply: %v", i, err)
		}
	}
	if st := cl.Stats(); st.Retries != n {
		t.Fatalf("retries = %d, want %d", st.Retries, n)
	}

	// Zero duplicate applies: the surviving replicas' logs grew by
	// exactly the pipeline, and every key holds its own value.
	waitApplied(t, c, 1, 2)
	for _, node := range []int{1, 2} {
		if got := logLenAt(node); got != base+n {
			t.Fatalf("node %d applied %d writes, want %d (duplicate apply)", node, got, base+n)
		}
	}
	for i := 0; i < n; i++ {
		val, err := cl.Get(ctx, uint64(i))
		if err != nil || string(val) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("key %d = %q, %v", i, val, err)
		}
	}
}

// TestSessionExpiredMidFlightSurfaces pins the expiry boundary: an
// operation that committed, lost its reply, and straddled a session
// expiry before the failover retry must surface ErrSessionExpired — the
// dedup state that could classify the retry is gone, and silently
// re-applying would break exactly-once.
func TestSessionExpiredMidFlightSurfaces(t *testing.T) {
	c, err := livecluster.Start(livecluster.Config{
		Nodes:        3,
		Node:         core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:         23,
		LoggedStores: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	cl, err := client.New(client.Config{
		Endpoints:      []string{c.ClientAddr(0), c.ClientAddr(1), c.ClientAddr(2)},
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if err := cl.Put(ctx, 1, []byte("up")); err != nil {
		t.Fatal(err)
	}
	sess := cl.SessionID()

	// Commit a write whose reply is lost.
	c.Port(0).SetDropReplies(true)
	fut := cl.PutAsync(2, []byte("orphan"))
	logLenAt := func(node int) uint64 {
		var n uint64
		c.InspectStore(node, func(st *kvstore.Store) { n = st.LogLen() })
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for logLenAt(1) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("orphan write did not commit")
		}
		time.Sleep(time.Millisecond)
	}

	// Expire the session through consensus while the reply is lost.
	c.Runner(1).Invoke(func() { c.Node(1).ExpireSession(sess, nil) })
	for {
		var has bool
		c.Runner(1).Invoke(func() { has = c.Node(1).Sessions().Has(sess) })
		if !has {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session expiry did not commit")
		}
		time.Sleep(time.Millisecond)
	}

	// Crash the serving node: the failover retry of the committed write
	// meets an expired session and must surface the typed error.
	c.Crash(0)
	if _, err := fut.Wait(ctx); !errors.Is(err, client.ErrSessionExpired) {
		t.Fatalf("retry across expiry returned %v, want ErrSessionExpired", err)
	}

	// Not re-applied: replicas logged the session write exactly once.
	if got := logLenAt(1); got != 2 {
		t.Fatalf("replica applied %d writes, want 2 (expired retry must not re-apply)", got)
	}

	// The client recovers: the next mutation runs under a fresh session.
	if err := cl.Put(ctx, 3, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if ns := cl.SessionID(); ns == 0 || ns == sess {
		t.Fatalf("session not re-registered: %#x (old %#x)", ns, sess)
	}
}

// TestEndSessionLifecycle pins explicit session teardown: EndSession
// commits the expiry (the dedup state leaves every replica), and the
// next mutation transparently registers a fresh session.
func TestEndSessionLifecycle(t *testing.T) {
	c, err := livecluster.Start(livecluster.Config{
		Nodes: 3,
		Node:  core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:  29,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	cl, err := client.New(client.Config{Endpoints: []string{c.ClientAddr(0)}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if err := cl.Put(ctx, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	old := cl.SessionID()
	if old == 0 {
		t.Fatal("no session after mutation")
	}
	if err := cl.EndSession(ctx); err != nil {
		t.Fatal(err)
	}
	if cl.SessionID() != 0 {
		t.Fatal("session survived EndSession client-side")
	}
	waitApplied(t, c, 0, 1, 2) // node 0 acked; 1 and 2 may not have committed yet
	for i := 0; i < 3; i++ {
		var has bool
		c.Runner(i).Invoke(func() { has = c.Node(i).Sessions().Has(old) })
		if has {
			t.Fatalf("node %d still holds the expired session", i)
		}
	}
	// A second EndSession with no session is a no-op.
	if err := cl.EndSession(ctx); err != nil {
		t.Fatal(err)
	}
	// The next mutation re-registers and succeeds (it was never retried,
	// so no ErrSessionExpired surfaces).
	if err := cl.Put(ctx, 2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if ns := cl.SessionID(); ns == 0 || ns == old {
		t.Fatalf("fresh session not registered: %#x (old %#x)", ns, old)
	}
}

// TestBatchAcrossExpiryReissues pins the batch half of the expiry
// contract: a never-retried batch whose mutations meet an expired
// session is deterministically unapplied, so the client re-issues it
// whole under a fresh session instead of surfacing per-slot errors.
func TestBatchAcrossExpiryReissues(t *testing.T) {
	c, err := livecluster.Start(livecluster.Config{
		Nodes: 3,
		Node:  core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:  37,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	cl, err := client.New(client.Config{Endpoints: []string{c.ClientAddr(0)}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if err := cl.Put(ctx, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	sess := cl.SessionID()

	// Expire the session through consensus behind the client's back.
	c.Runner(1).Invoke(func() { c.Node(1).ExpireSession(sess, nil) })
	deadline := time.Now().Add(10 * time.Second)
	for {
		var has bool
		c.Runner(0).Invoke(func() { has = c.Node(0).Sessions().Has(sess) })
		if !has {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expiry never committed")
		}
		time.Sleep(time.Millisecond)
	}

	res, err := cl.Batch(ctx, []client.Op{
		{Kind: client.OpPut, Key: 2, Val: []byte("b")},
		{Kind: client.OpGet, Key: 1},
	})
	if err != nil {
		t.Fatalf("batch across expiry failed wholesale: %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d surfaced %v, want transparent re-issue", i, r.Err)
		}
	}
	if string(res[1].Val) != "a" {
		t.Fatalf("read slot = %q", res[1].Val)
	}
	if ns := cl.SessionID(); ns == 0 || ns == sess {
		t.Fatalf("batch did not re-register: %#x (old %#x)", ns, sess)
	}
}

// TestSequentialFailoverMonotonic pins the session guarantee across a
// failover: after writing through one node and crashing it, a
// Sequential read through the failover endpoint observes the write
// (the session clock carries the commit cycle to the new replica).
func TestSequentialFailoverMonotonic(t *testing.T) {
	c, err := livecluster.Start(livecluster.Config{
		Nodes: 3,
		Node:  core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:  13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	cl, err := client.New(client.Config{
		Endpoints: []string{c.ClientAddr(0), c.ClientAddr(1), c.ClientAddr(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if err := cl.Put(ctx, 42, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if cl.LastCycle() == 0 {
		t.Fatal("session observed no commit cycle")
	}
	c.Crash(0)

	// The Sequential read fails over and must still observe the
	// session's write — the new replica serves it only once it has
	// committed the session's last observed cycle.
	val, err := cl.Get(ctx, 42, client.WithConsistency(client.Sequential))
	if err != nil || string(val) != "mine" {
		t.Fatalf("sequential read after failover = %q, %v", val, err)
	}
}

// TestBatchRoundTrip exercises the multi-op frame end to end through
// the public API.
func TestBatchRoundTrip(t *testing.T) {
	c, err := livecluster.Start(livecluster.Config{
		Nodes: 3,
		Node:  core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:  17,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)

	cl, err := client.New(client.Config{Endpoints: []string{c.ClientAddr(0)}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	res, err := cl.Batch(ctx, []client.Op{
		{Kind: client.OpPut, Key: 1, Val: []byte("a")},
		{Kind: client.OpPut, Key: 2, Val: []byte("b")},
		{Kind: client.OpGet, Key: 1, Consistency: client.Linearizable},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[2].Err != nil || string(res[2].Val) != "a" {
		t.Fatalf("batch results: %+v", res)
	}
	if res[2].Cycle == 0 {
		t.Fatal("batch carried no commit cycle")
	}

	// Async form, mixed with a stale read.
	f := cl.BatchAsync([]client.Op{
		{Kind: client.OpGet, Key: 2, Consistency: client.Stale},
		{Kind: client.OpDelete, Key: 1},
	})
	res, err = f.Batch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || string(res[0].Val) != "b" || res[1].Err != nil {
		t.Fatalf("async batch results: %+v", res)
	}
	if _, err := cl.Get(ctx, 1); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("key 1 survived batch delete: %v", err)
	}
}

// TestDialBackoffOnRefusedCluster pins the failover backoff: when every
// endpoint refuses, consecutive dial scans wait a capped, jittered
// exponential delay (base 2^k, jitter >= delay/2) instead of hammering
// the cluster, and the delay never exceeds RetryBackoffMax.
func TestDialBackoffOnRefusedCluster(t *testing.T) {
	// A port that was just listening and closed: connection refused,
	// immediately, on every dial.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cl, err := client.New(client.Config{
		Endpoints:       []string{addr},
		DialTimeout:     500 * time.Millisecond,
		RetryBackoff:    10 * time.Millisecond,
		RetryBackoffMax: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	start := time.Now()
	const ops = 6
	for i := 0; i < ops; i++ {
		if _, err := cl.Get(ctx, 1); !errors.Is(err, client.ErrClusterDown) {
			t.Fatalf("op %d err = %v, want ErrClusterDown", i, err)
		}
	}
	elapsed := time.Since(start)
	// Scans wait 0, 10, 20, 40, 40, 40 ms nominal; jitter's floor is
	// half of each, so the whole sequence takes at least 75ms...
	if elapsed < 70*time.Millisecond {
		t.Fatalf("%d failed ops took %v — backoff not applied", ops, elapsed)
	}
	// ...and at most 150ms of waits plus dial overhead: far below what
	// an uncapped exponential (10ms·2^5 = 320ms for the last wait alone)
	// would need.
	if elapsed > 2*time.Second {
		t.Fatalf("%d failed ops took %v — backoff cap not applied", ops, elapsed)
	}
}
