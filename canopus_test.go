package canopus_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"canopus"
)

func TestSimClusterPublicAPI(t *testing.T) {
	c := canopus.MustSimCluster(canopus.SimOptions{Racks: 2, NodesPerRack: 3})
	var readVal []byte
	c.At(time.Millisecond, func() {
		c.Submit(0, canopus.OpWrite, 5, []byte("v"), nil)
		c.Submit(3, canopus.OpWrite, 6, []byte("w"), nil)
	})
	c.At(200*time.Millisecond, func() {
		c.Submit(0, canopus.OpRead, 6, nil, func(val []byte, ok bool) {
			if !ok {
				t.Error("read rejected")
			}
			readVal = val
		})
	})
	c.RunUntil(time.Second)
	if string(readVal) != "w" {
		t.Fatalf("read = %q", readVal)
	}
	for id := canopus.NodeID(0); int(id) < c.NumNodes(); id++ {
		if string(c.StoreOf(id).Read(5)) != "v" {
			t.Fatalf("node %v missing key 5", id)
		}
	}
}

func TestSimClusterDelete(t *testing.T) {
	c := canopus.MustSimCluster(canopus.SimOptions{Racks: 2, NodesPerRack: 3})
	var afterDelete []byte
	deleted := false
	c.At(time.Millisecond, func() {
		c.Submit(0, canopus.OpWrite, 5, []byte("v"), nil)
	})
	c.At(200*time.Millisecond, func() {
		c.Submit(2, canopus.OpDelete, 5, nil, func(_ []byte, ok bool) { deleted = ok })
	})
	c.At(400*time.Millisecond, func() {
		c.Submit(4, canopus.OpRead, 5, nil, func(val []byte, ok bool) {
			afterDelete = val
		})
	})
	c.RunUntil(time.Second)
	if !deleted {
		t.Fatal("delete not acknowledged")
	}
	if afterDelete != nil {
		t.Fatalf("read after delete = %q, want nil", afterDelete)
	}
	for id := canopus.NodeID(0); int(id) < c.NumNodes(); id++ {
		if c.StoreOf(id).Read(5) != nil {
			t.Fatalf("node %v still holds deleted key", id)
		}
	}
}

func TestSimClusterLegacyRequestAPI(t *testing.T) {
	// The low-level event-loop surface: caller-owned Request identity
	// with node-level reply hooks.
	c := canopus.MustSimCluster(canopus.SimOptions{Racks: 2, NodesPerRack: 3})
	var readVal []byte
	c.OnReply(0, func(req *canopus.Request, val []byte) {
		if req.Op == canopus.OpRead {
			readVal = val
		}
	})
	c.At(time.Millisecond, func() {
		c.SubmitRequest(0, canopus.Write(1, 1, 5, []byte("v")))
	})
	c.At(200*time.Millisecond, func() { c.SubmitRequest(0, canopus.Read(1, 2, 5)) })
	c.RunUntil(time.Second)
	if string(readVal) != "v" {
		t.Fatalf("read = %q", readVal)
	}
}

func TestNewSimClusterRejectsBadShapes(t *testing.T) {
	if _, err := canopus.NewSimCluster(canopus.SimOptions{Racks: -1}); err == nil {
		t.Fatal("negative racks accepted")
	}
	if _, err := canopus.NewSimCluster(canopus.SimOptions{
		Racks: 3, NodesPerRack: 2,
		WANRTT: make([][]time.Duration, 2), // 2x? matrix for 3 racks
	}); err == nil {
		t.Fatal("mismatched WANRTT accepted")
	}
	if _, err := canopus.NewCoordCluster(canopus.SimOptions{NodesPerRack: -3}); err == nil {
		t.Fatal("coordination cluster accepted negative shape")
	}
}

func TestSimClusterWAN(t *testing.T) {
	rtt := [][]time.Duration{
		{0, 100 * time.Millisecond},
		{100 * time.Millisecond, 0},
	}
	c := canopus.MustSimCluster(canopus.SimOptions{
		Racks: 2, NodesPerRack: 3, WANRTT: rtt,
		Node: canopus.Config{CycleInterval: 5 * time.Millisecond, MaxInFlight: 64},
	})
	c.At(time.Millisecond, func() { c.Submit(0, canopus.OpWrite, 1, []byte("x"), nil) })
	c.RunUntil(2 * time.Second)
	if string(c.StoreOf(5).Read(1)) != "x" {
		t.Fatal("WAN replication failed")
	}
}

func TestCrashAndRejoinPublicAPI(t *testing.T) {
	c := canopus.MustSimCluster(canopus.SimOptions{Racks: 2, NodesPerRack: 3})
	c.At(time.Millisecond, func() { c.Submit(0, canopus.OpWrite, 1, []byte("a"), nil) })
	c.At(300*time.Millisecond, func() { c.Crash(5) })
	c.At(500*time.Millisecond, func() {
		// A submit aimed at the crashed node is rejected, not lost.
		c.Submit(5, canopus.OpWrite, 9, []byte("x"), func(_ []byte, ok bool) {
			if ok {
				t.Error("crashed node served a write")
			}
		})
	})
	c.At(800*time.Millisecond, func() { c.Submit(0, canopus.OpWrite, 2, []byte("b"), nil) })
	c.At(1500*time.Millisecond, func() { c.RestartAsJoiner(5) })
	c.At(3*time.Second, func() { c.Submit(0, canopus.OpWrite, 3, []byte("c"), nil) })
	c.RunUntil(6 * time.Second)
	st := c.StoreOf(5)
	for k, want := range map[uint64]string{1: "a", 2: "b", 3: "c"} {
		if got := string(st.Read(k)); got != want {
			t.Fatalf("rejoined node key %d = %q, want %q", k, got, want)
		}
	}
}

// TestSessionSurvivesRejoinStateTransfer pins the join-protocol session
// transfer: a node restarted with total state loss receives the
// replicated dedup table in its JoinReply, so a retried committed
// mutation submitted AT the rejoined node still classifies as a
// duplicate instead of re-applying.
func TestSessionSurvivesRejoinStateTransfer(t *testing.T) {
	c := canopus.MustSimCluster(canopus.SimOptions{Racks: 2, NodesPerRack: 3})
	var sess uint64
	c.At(time.Millisecond, func() {
		c.RegisterSession(0, func(id uint64, ok bool) {
			if !ok {
				t.Error("registration refused")
			}
			sess = id
		})
	})
	c.At(300*time.Millisecond, func() {
		c.SubmitSession(0, sess, 1, canopus.OpWrite, 5, []byte("first"), nil)
	})
	c.At(600*time.Millisecond, func() { c.Crash(5) })
	c.At(1500*time.Millisecond, func() { c.RestartAsJoiner(5) })
	dupAcked := false
	c.At(3*time.Second, func() {
		// The reply-loss retry, aimed at the node that lost all state.
		c.SubmitSession(5, sess, 1, canopus.OpWrite, 5, []byte("second"), func(_ []byte, ok bool) {
			dupAcked = ok
		})
	})
	c.RunUntil(6 * time.Second)
	if !dupAcked {
		t.Fatal("rejoined node refused the duplicate (session table lost in transfer)")
	}
	for id := canopus.NodeID(0); int(id) < c.NumNodes(); id++ {
		if got := string(c.StoreOf(id).Read(5)); got != "first" {
			t.Fatalf("node %v = %q: duplicate re-applied after rejoin", id, got)
		}
	}
}

func TestCoordClusterPublicAPI(t *testing.T) {
	c := canopus.MustCoordCluster(canopus.SimOptions{Racks: 2, NodesPerRack: 3})
	var got string
	c.At(time.Millisecond, func() {
		c.Server(0).Set("/cfg", []byte("on"), func(n *canopus.ZNode) {
			c.Server(3).Get("/cfg", func(n *canopus.ZNode) {
				if n != nil {
					got = string(n.Data)
				}
			})
		})
	})
	c.RunUntil(time.Second)
	if got != "on" {
		t.Fatalf("linearizable get = %q", got)
	}
}

// TestSimClusterCloseCompletesSubmits pins the serve-mode shutdown
// contract: every Submit's done fires even when Close races the pump —
// queued operations are rejected (ok=false), not dropped.
func TestSimClusterCloseCompletesSubmits(t *testing.T) {
	c := canopus.MustSimCluster(canopus.SimOptions{Racks: 1, NodesPerRack: 3})
	c.Serve()
	const n = 200
	results := make(chan bool, n+1)
	go func() {
		for i := 0; i < n; i++ {
			c.Submit(i%3, canopus.OpWrite, uint64(i), []byte("x"), func(_ []byte, ok bool) {
				results <- ok
			})
		}
	}()
	c.Close()
	// Submits after Close are rejected immediately, too.
	c.Submit(0, canopus.OpWrite, 999, nil, func(_ []byte, ok bool) { results <- ok })
	deadline := time.After(5 * time.Second)
	for i := 0; i < n+1; i++ {
		select {
		case <-results:
		case <-deadline:
			t.Fatalf("only %d of %d done callbacks fired across Close", i, n+1)
		}
	}
}

// TestSimClusterCloseCompletesInjected pins the other half of the
// shutdown contract: an operation injected into the simulation but
// unable to ever commit (its super-leaf lost quorum) still gets its
// done callback — rejected by the stall detection or, at the latest,
// by Close draining the in-flight completion table.
func TestSimClusterCloseCompletesInjected(t *testing.T) {
	c := canopus.MustSimCluster(canopus.SimOptions{Racks: 1, NodesPerRack: 3})
	// Crash a majority before serving: node 0 will stall as soon as the
	// failure detector runs, and nothing it accepted can commit.
	c.Crash(1)
	c.Crash(2)
	c.Serve()
	done := make(chan bool, 1)
	c.Submit(0, canopus.OpWrite, 1, []byte("x"), func(_ []byte, ok bool) { done <- ok })
	time.Sleep(50 * time.Millisecond) // let the pump inject it and detect the failures
	c.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("uncommittable operation reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injected operation's done never fired across Close")
	}
}

// TestWorkloadDriverBothBackends is the unified-API acceptance check:
// the same closed-loop driver — 8 goroutines, each with one Submit
// outstanding, half of them writes — runs unmodified through the
// canopus.Cluster interface against a simulated cluster (in serve mode)
// and a live loopback cluster, and every offered operation completes.
func TestWorkloadDriverBothBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load run")
	}
	drive := func(t *testing.T, c canopus.Cluster) {
		t.Helper()
		defer c.Close()
		var offered, completed, failed atomic.Uint64
		end := time.Now().Add(400 * time.Millisecond)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(3 + w)))
				done := make(chan bool, 1)
				for time.Now().Before(end) {
					op, val := canopus.OpRead, []byte(nil)
					if rng.Intn(2) == 0 {
						op, val = canopus.OpWrite, []byte("12345678")
					}
					offered.Add(1)
					c.Submit(w%c.NumNodes(), op, rng.Uint64()%65536, val, func(_ []byte, ok bool) { done <- ok })
					select {
					case ok := <-done:
						if ok {
							completed.Add(1)
						} else {
							failed.Add(1)
						}
					case <-time.After(10 * time.Second):
						t.Errorf("worker %d: no reply within 10s", w)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if offered.Load() == 0 {
			t.Fatal("no requests offered")
		}
		if completed.Load() != offered.Load() || failed.Load() != 0 {
			t.Fatalf("offered %d, completed %d, failed %d", offered.Load(), completed.Load(), failed.Load())
		}
	}

	t.Run("sim", func(t *testing.T) {
		c := canopus.MustSimCluster(canopus.SimOptions{Racks: 1, NodesPerRack: 3})
		c.Serve()
		drive(t, c)
	})
	t.Run("live", func(t *testing.T) {
		c, err := canopus.StartLiveCluster(canopus.LiveOptions{
			Nodes: 3,
			Node:  canopus.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		drive(t, c)
	})
}

// TestSessionExactlyOnceBothBackends asserts the replicated-session
// guarantee holds identically behind the one SessionCluster interface:
// on both backends, re-submitting a committed mutation with its
// original (session, seq) — the reply-loss retry, reproduced directly —
// acknowledges from the dedup table without re-applying, and an unknown
// session is refused rather than silently applied.
func TestSessionExactlyOnceBothBackends(t *testing.T) {
	drive := func(t *testing.T, c canopus.SessionCluster, read func(node int, key uint64) []byte) {
		t.Helper()
		defer c.Close()

		wait := func(what string, ch chan []byte) []byte {
			t.Helper()
			select {
			case v := <-ch:
				return v
			case <-time.After(10 * time.Second):
				t.Fatalf("%s never completed", what)
				return nil
			}
		}
		regCh := make(chan []byte, 1)
		var sess uint64
		c.RegisterSession(0, func(id uint64, ok bool) {
			if !ok {
				t.Error("session registration refused")
			}
			sess = id
			regCh <- nil
		})
		wait("registration", regCh)
		if sess == 0 {
			t.Fatal("no session ID committed")
		}

		done := make(chan []byte, 1)
		okCh := make(chan bool, 2)
		c.SubmitSession(0, sess, 1, canopus.OpWrite, 7, []byte("first"), func(_ []byte, ok bool) {
			okCh <- ok
			done <- nil
		})
		wait("first submission", done)

		// The reply-loss retry: same (session, seq), different node, and
		// — to make a re-apply visible — a different payload. The dedup
		// table must acknowledge without applying.
		c.SubmitSession(1, sess, 1, canopus.OpWrite, 7, []byte("second"), func(_ []byte, ok bool) {
			okCh <- ok
			done <- nil
		})
		wait("duplicate submission", done)
		for i := 0; i < 2; i++ {
			if !<-okCh {
				t.Fatal("session submission refused")
			}
		}
		// Let the duplicate's cycle reach every replica before checking
		// their states (commits land asynchronously across nodes).
		time.Sleep(100 * time.Millisecond)
		for node := 0; node < c.NumNodes(); node++ {
			if got := string(read(node, 7)); got != "first" {
				t.Fatalf("node %d = %q: duplicate submission was re-applied", node, got)
			}
		}

		// An unknown session must be refused, not silently applied.
		bogus := sess ^ 0x5a5a
		c.SubmitSession(2, bogus, 1, canopus.OpWrite, 8, []byte("x"), func(_ []byte, ok bool) {
			if ok {
				t.Error("unknown session accepted")
			}
			done <- nil
		})
		wait("unknown-session submission", done)
		time.Sleep(100 * time.Millisecond)
		if v := read(0, 8); v != nil {
			t.Fatalf("unknown session mutated state: %q", v)
		}
	}

	t.Run("sim", func(t *testing.T) {
		c := canopus.MustSimCluster(canopus.SimOptions{Racks: 1, NodesPerRack: 3})
		c.Serve()
		drive(t, c, func(node int, key uint64) []byte {
			// The pump owns the simulation context; a Stale read through
			// the interface observes the node's committed state safely.
			ch := make(chan []byte, 1)
			c.Submit(node, canopus.OpRead, key, nil, func(val []byte, ok bool) {
				v := make([]byte, len(val))
				copy(v, val)
				if val == nil {
					v = nil
				}
				ch <- v
			})
			select {
			case v := <-ch:
				return v
			case <-time.After(10 * time.Second):
				t.Fatal("read never completed")
				return nil
			}
		})
	})
	t.Run("live", func(t *testing.T) {
		c, err := canopus.StartLiveCluster(canopus.LiveOptions{
			Nodes: 3,
			Node:  canopus.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		drive(t, c, func(node int, key uint64) []byte {
			var v []byte
			c.Runner(node).Invoke(func() {
				if val := c.Store(node).Read(key); val != nil {
					v = append([]byte(nil), val...)
				}
			})
			return v
		})
	})
}
