package canopus_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"canopus"
	"canopus/internal/wire"
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

// TestRestartAsJoinerKeepsNodeTemplate pins that a restarted node runs
// the cluster's node template, not the defaults: every node must seat a
// joiner at the same cycle (join commit + MaxInFlight), so a node that
// rejoined with the default MaxInFlight of 4 among peers running 8
// disagrees with them about the next join.
func TestRestartAsJoinerKeepsNodeTemplate(t *testing.T) {
	c := canopus.MustSimCluster(canopus.SimOptions{
		Racks: 2, NodesPerRack: 3,
		Node: canopus.Config{MaxInFlight: 8},
	})
	for i := 0; i < 60; i++ {
		i := i
		c.At(time.Duration(i)*100*time.Millisecond+time.Millisecond, func() {
			c.Submit(i%4, canopus.OpWrite, uint64(i), []byte(fmt.Sprint(i)), nil)
		})
	}
	c.At(500*time.Millisecond, func() { c.Crash(5) })
	c.At(1000*time.Millisecond, func() { c.RestartAsJoiner(5) })
	c.At(2500*time.Millisecond, func() { c.Crash(4) })
	c.At(3000*time.Millisecond, func() { c.RestartAsJoiner(4) })
	c.RunUntil(8 * time.Second)
	for id := canopus.NodeID(0); int(id) < c.NumNodes(); id++ {
		for k := 0; k < 60; k++ {
			if got, want := string(c.StoreOf(id).Read(uint64(k))), fmt.Sprint(k); got != want {
				t.Fatalf("node %v key %d = %q, want %q", id, k, got, want)
			}
		}
	}
}

// TestWorkloadDriverBothBackends drives a live loopback cluster with a
// closed-loop load — 8 goroutines, each with one Submit outstanding,
// half of them writes — and requires every offered operation to
// complete. Submit is the in-process path benchmark/ measures beside
// canopus/client.
func TestWorkloadDriverBothBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load run")
	}
	drive := func(t *testing.T, c *canopus.LiveCluster) {
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
// guarantee on a live loopback cluster: re-submitting a committed
// mutation with its original (session, seq) — the reply-loss retry,
// reproduced directly — at another node acknowledges from the dedup
// table without re-applying, and an unknown session is refused rather
// than silently applied. canopus/client assigns (session, seq) itself,
// so the test speaks the client protocol directly to forge the retry.
func TestSessionExactlyOnceBothBackends(t *testing.T) {
	t.Run("live", func(t *testing.T) {
		c, err := canopus.StartLiveCluster(canopus.LiveOptions{
			Nodes: 3,
			Node:  canopus.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		write := func(node int, session uint64, val string) wire.ClientResponseV2 {
			return rawCall(t, c.ClientAddr(node), wire.ClientRequestV2{ID: 1, Session: session, Seq: 1,
				Ops: []wire.ClientOp{{Op: wire.OpWrite, Key: 7, Val: []byte(val)}}})
		}
		read := func(node int, key uint64) []byte {
			var v []byte
			c.InspectStore(node, func(st *canopus.Store) {
				if val := st.Read(key); val != nil {
					v = append([]byte(nil), val...)
				}
			})
			return v
		}

		reg := rawCall(t, c.ClientAddr(0), wire.ClientRequestV2{ID: 1, Register: true})
		if reg.Status != wire.ClientStatusOK || len(reg.Val) != 8 {
			t.Fatalf("session registration refused: %+v", reg)
		}
		sess := binary.LittleEndian.Uint64(reg.Val)
		if resp := write(0, sess, "first"); resp.Status != wire.ClientStatusOK {
			t.Fatalf("first submission refused: %+v", resp)
		}
		// The reply-loss retry: same (session, seq), different node, and
		// — to make a re-apply visible — a different payload. The dedup
		// table must acknowledge without applying.
		if resp := write(1, sess, "second"); resp.Status != wire.ClientStatusOK {
			t.Fatalf("duplicate submission refused: %+v", resp)
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
		resp := rawCall(t, c.ClientAddr(2), wire.ClientRequestV2{ID: 1, Session: bogus, Seq: 1,
			Ops: []wire.ClientOp{{Op: wire.OpWrite, Key: 8, Val: []byte("x")}}})
		if resp.Status != wire.ClientStatusErr || resp.Code != wire.CodeSessionExpired {
			t.Fatalf("unknown session answered %+v, want a session-expired refusal", resp)
		}
		time.Sleep(100 * time.Millisecond)
		if v := read(0, 8); v != nil {
			t.Fatalf("unknown session mutated state: %q", v)
		}
	})
}

// rawCall sends one client-protocol frame to addr on a fresh connection
// and returns the response.
func rawCall(t *testing.T, addr string, q wire.ClientRequestV2) wire.ClientResponseV2 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(wire.AppendClientRequestV3(wire.ClientMagicV3[:], &q)); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ParseClientResponseV3(payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
