package recipes_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"canopus/client"
	"canopus/internal/livecluster"
	"canopus/internal/wire"
	"canopus/recipes"
)

// startLive boots a live loopback deployment — by default six nodes in
// two super-leaves with fast cycles — torn down when the test ends.
func startLive(t *testing.T, cfg livecluster.Config) *livecluster.Cluster {
	t.Helper()
	if cfg.Nodes == 0 && cfg.SuperLeaves == nil {
		cfg.SuperLeaves = [][]wire.NodeID{{0, 1, 2}, {3, 4, 5}}
	}
	if cfg.Node.CycleInterval == 0 {
		cfg.Node.CycleInterval, cfg.Node.TickInterval = time.Millisecond, time.Millisecond
	}
	c, err := livecluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop(5 * time.Second) })
	return c
}

// dial connects a client to the given nodes, in failover order, closed
// when the test ends. Each client is one replicated session: one lock
// holder, one candidate.
func dial(t *testing.T, c *livecluster.Cluster, nodes ...int) *client.Client {
	t.Helper()
	eps := make([]string, len(nodes))
	for i, n := range nodes {
		eps[i] = c.ClientAddr(n)
	}
	cl, err := client.New(client.Config{Endpoints: eps, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestMutexMutualExclusion races contenders on different nodes through
// Lock/Unlock and asserts no two ever sit in the critical section at
// once — the committed cycle order admits exactly one CAS per vacancy.
func TestMutexMutualExclusion(t *testing.T) {
	c := startLive(t, livecluster.Config{Seed: 11})
	ctx := testCtx(t)

	const key = 100
	nodes := []int{0, 1, 3, 4}
	const rounds = 4

	var inside atomic.Int32
	var acquired atomic.Int32
	var wg sync.WaitGroup
	for _, node := range nodes {
		m := recipes.NewMutex(dial(t, c, node), key)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := m.Lock(ctx); err != nil {
					t.Errorf("Lock: %v", err)
					return
				}
				if n := inside.Add(1); n != 1 {
					t.Errorf("%d holders in the critical section", n)
				}
				acquired.Add(1)
				time.Sleep(time.Millisecond)
				inside.Add(-1)
				if err := m.Unlock(ctx); err != nil {
					t.Errorf("Unlock: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := acquired.Load(), int32(len(nodes)*rounds); got != want {
		t.Fatalf("acquired %d times, want %d", got, want)
	}
}

// TestMutexTryLockAndNotHeld pins the non-blocking path and the release
// safety rule: TryLock on a held lock fails without waiting, and Unlock
// by a non-holder is refused (it never deletes another session's
// acquisition).
func TestMutexTryLockAndNotHeld(t *testing.T) {
	c := startLive(t, livecluster.Config{Seed: 13})
	ctx := testCtx(t)

	const key = 200
	m1 := recipes.NewMutex(dial(t, c, 0), key)
	m2 := recipes.NewMutex(dial(t, c, 3), key)

	if err := m1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if ok, err := m2.TryLock(ctx); err != nil || ok {
		t.Fatalf("TryLock on held lock = %v, %v; want false", ok, err)
	}
	if err := m2.Unlock(ctx); !errors.Is(err, recipes.ErrNotHeld) {
		t.Fatalf("Unlock by non-holder = %v, want ErrNotHeld", err)
	}
	// Lock is idempotent while held.
	if err := m1.Lock(ctx); err != nil {
		t.Fatalf("re-Lock while holding: %v", err)
	}
	if err := m1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if ok, err := m2.TryLock(ctx); err != nil || !ok {
		t.Fatalf("TryLock on free lock = %v, %v; want true", ok, err)
	}
	if err := m2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCounterConcurrentAdds hammers one counter from four nodes and
// asserts no increment is ever lost: every Add is a guarded CAS that
// only commits against the value it read.
func TestCounterConcurrentAdds(t *testing.T) {
	c := startLive(t, livecluster.Config{Seed: 17})
	ctx := testCtx(t)

	const key = 300
	nodes := []int{0, 1, 3, 4}
	const perNode = 10

	var wg sync.WaitGroup
	for _, node := range nodes {
		ctr := recipes.NewCounter(dial(t, c, node), key)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				if _, err := ctr.Add(ctx, 1); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	ctr := recipes.NewCounter(dial(t, c, 5), key)
	got, err := ctr.Value(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(nodes) * perNode); got != want {
		t.Fatalf("counter = %d, want %d (lost updates)", got, want)
	}
}

// TestElectionHandover runs a full leadership lifecycle: a candidate
// wins, a second blocks campaigning, resignation hands over, and a
// resigned candidate's Resign reports ErrNotHeld.
func TestElectionHandover(t *testing.T) {
	c := startLive(t, livecluster.Config{Seed: 19})
	ctx := testCtx(t)

	const key = 400
	alice := recipes.NewElection(dial(t, c, 0), key, []byte("alice"))
	bob := recipes.NewElection(dial(t, c, 3), key, []byte("bob"))

	if err := alice.Campaign(ctx); err != nil {
		t.Fatal(err)
	}
	if lead, err := alice.IsLeader(ctx); err != nil || !lead {
		t.Fatalf("IsLeader after win = %v, %v", lead, err)
	}

	elected := make(chan error, 1)
	go func() { elected <- bob.Campaign(ctx) }()

	// bob must stay a candidate while alice leads.
	select {
	case err := <-elected:
		t.Fatalf("bob elected while alice leads (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	observer := recipes.NewElection(dial(t, c, 5), key, []byte("observer"))
	if name, err := observer.Leader(ctx); err != nil || !bytes.Equal(name, []byte("alice")) {
		t.Fatalf("Leader = %q, %v; want alice", name, err)
	}

	if err := alice.Resign(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-elected:
		if err != nil {
			t.Fatalf("bob's campaign failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bob never elected after alice resigned")
	}
	if lead, err := bob.IsLeader(ctx); err != nil || !lead {
		t.Fatalf("bob IsLeader = %v, %v", lead, err)
	}
	if err := alice.Resign(ctx); !errors.Is(err, recipes.ErrNotHeld) {
		t.Fatalf("second Resign = %v, want ErrNotHeld", err)
	}
	if name, err := observer.Leader(ctx); err != nil || !bytes.Equal(name, []byte("bob")) {
		t.Fatalf("Leader = %q, %v; want bob", name, err)
	}
}

// TestBarrierReleasesAll parks n-1 parties on a rendezvous and asserts
// the nth arrival releases every one of them.
func TestBarrierReleasesAll(t *testing.T) {
	c := startLive(t, livecluster.Config{Seed: 23})
	ctx := testCtx(t)

	const key = 500
	nodes := []int{0, 1, 3}

	done := make(chan error, len(nodes))
	for i, node := range nodes {
		bar := recipes.NewBarrier(dial(t, c, node), key, len(nodes))
		delay := time.Duration(i) * 20 * time.Millisecond
		go func() {
			time.Sleep(delay) // stagger so early parties really park
			done <- bar.Arrive(ctx)
		}()
	}
	for range nodes {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Arrive: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("barrier never released all parties")
		}
	}
}
