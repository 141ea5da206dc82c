package livecluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"canopus/admin"
	"canopus/internal/core"
	"canopus/internal/kvstore"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

// durableConfig is a 3-node loopback deployment whose "disks" are the
// given MemFS array, so a second Start models a restart of the same
// machines. Admin gateways are on so the tests exercise the same
// digest/status surface the CI durability smoke scrapes.
func durableConfig(disks []*wal.MemFS) Config {
	return Config{
		Nodes: len(disks),
		Node:  core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:  7,
		// Logged stores give LogLen/LogDigest for exactly-once assertions.
		LoggedStores:   true,
		SnapshotCycles: 4, // hundreds of cycles per run: exercise snapshots + truncation
		DataFS:         func(i int) wal.FS { return disks[i] },
		Admin:          true,
	}
}

// TestDurableRestartRecoversState is the end-to-end restart story over
// real sockets: a durable cluster takes client traffic (including a
// replicated session), shuts down, and a fresh cluster started from the
// same disks serves the old state — with session dedup intact, so a
// mutation retried across the restart does not apply twice.
func TestDurableRestartRecoversState(t *testing.T) {
	disks := []*wal.MemFS{wal.NewMemFS(), wal.NewMemFS(), wal.NewMemFS()}
	c1, err := Start(durableConfig(disks))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cl := dialClient(t, c1, 0)
	const n = 200
	for i := 0; i < n; i++ {
		if err := cl.Put(ctx, uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// One replicated session with one applied mutation: its dedup entry
	// must survive the restart.
	raw := dialRaw(t, c1.ClientAddr(0))
	raw.send(t, wire.ClientRequestV2{ID: 1, Register: true})
	reg := raw.next(t)
	if reg.Status != wire.ClientStatusOK || len(reg.Val) != 8 {
		t.Fatalf("session registration failed: %+v", reg)
	}
	sid := binary.LittleEndian.Uint64(reg.Val)
	if resp := sessionWrite(t, c1, 0, sid, 1000, "first"); resp.Status != wire.ClientStatusOK {
		t.Fatalf("session put failed: %+v", resp)
	}

	// Capture the replica identity every node agrees on. All mutations
	// are acked, so all three replicas hold the same state.
	var wantState, wantLog, wantLen uint64
	c1.InspectStore(0, func(st *kvstore.Store) {
		wantState, wantLog, wantLen = st.StateDigest(), st.LogDigest(), st.LogLen()
	})
	if wantLen == 0 {
		t.Fatal("no mutations applied before the restart")
	}

	if !c1.Stop(10 * time.Second) {
		t.Fatal("graceful stop did not drain")
	}
	durable := c1.Durability(0).Stats().DurableCycle

	// Restart the whole deployment from the same disks.
	c2, err := Start(durableConfig(disks))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer c2.Stop(5 * time.Second)

	// A live-only watch's ack is its resume point. The recovered cycles
	// are never published, so the ack must not fall below them, or the
	// watch's first resume would ask for history no node has.
	w, err := dialClient(t, c2, 0).Watch(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.LastCycle() < durable {
		t.Fatalf("watch ack cycle %d below the recovered cycle %d", w.LastCycle(), durable)
	}
	w.Close()

	// Reads go through consensus, so a successful read through each node
	// proves each recovered replica is serving.
	for i := 0; i < c2.NumNodes(); i++ {
		cli := dialClient(t, c2, i)
		val, err := cli.Get(ctx, n-1)
		if err != nil || string(val) != fmt.Sprintf("v%d", n-1) {
			t.Fatalf("node %d: Get(%d) after restart = %q, %v", i, n-1, val, err)
		}
	}

	// Every replica must converge to the pre-restart identity (laggards
	// close their watermark gap through root catch-up; reads above do not
	// mutate, so the digests are stable targets). The check goes through
	// the admin gateway — the surface the CI durability smoke compares
	// across a SIGKILL.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < c2.NumNodes(); i++ {
		cli := admin.New(c2.AdminAddr(i))
		for {
			d, err := cli.Digest(ctx)
			if err == nil && d.State == wantState && d.Log == wantLog {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never converged: digest %+v err %v, want state %x log %x",
					i, d, err, wantState, wantLog)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// /status carries the same identity plus the durability watermarks.
	st0, err := admin.New(c2.AdminAddr(0)).Status(ctx)
	if err != nil {
		t.Fatalf("admin status: %v", err)
	}
	if st0.Phase != "ok" || st0.Durability == nil || st0.Durability.DurableCycle == 0 {
		t.Fatalf("recovered /status not healthy: %+v", st0)
	}
	if st0.StateDigest != fmt.Sprintf("%016x", wantState) {
		t.Fatalf("/status state digest %s, want %016x", st0.StateDigest, wantState)
	}

	// Exactly-once across the restart: retry the session mutation with a
	// different payload through a different node. The recovered dedup
	// table must classify it as applied and leave the original value.
	if resp := sessionWrite(t, c2, 2, sid, 1000, "evil"); resp.Status != wire.ClientStatusOK {
		t.Fatalf("session retry rejected; dedup state lost in recovery: %+v", resp)
	}
	cli := dialClient(t, c2, 1)
	val, err := cli.Get(ctx, 1000)
	if err != nil || string(val) != "first" {
		t.Fatalf("session mutation applied twice across restart: key 1000 = %q, %v", val, err)
	}

	// The recovery actually came from snapshot + WAL: the disks must hold
	// a snapshot (cadence 4 over ~hundreds of cycles) for every node.
	for i, disk := range disks {
		names, _ := disk.List()
		snaps := 0
		for _, name := range names {
			if len(name) > 5 && name[:5] == "snap-" {
				snaps++
			}
		}
		if snaps == 0 {
			t.Fatalf("node %d disk has no snapshots: %v", i, names)
		}
	}
}

// sessionWrite submits one write under a forged (session, seq 1) to node
// over the client protocol — the identity canopus/client would assign
// itself — and returns the port's answer.
func sessionWrite(t *testing.T, c *Cluster, node int, session, key uint64, val string) wire.ClientResponseV2 {
	t.Helper()
	q := single(1, wire.OpWrite, key, val)
	q.Session, q.Seq = session, 1
	raw := dialRaw(t, c.ClientAddr(node))
	raw.send(t, q)
	return raw.next(t)
}

// TestDurableStatsVisible pins the ack/fsync ordering contract from the
// outside: once a client write is acknowledged, the origin's manager
// already reports a durable watermark — replies never outrun the log.
func TestDurableStatsVisible(t *testing.T) {
	disks := []*wal.MemFS{wal.NewMemFS(), wal.NewMemFS(), wal.NewMemFS()}
	c, err := Start(durableConfig(disks))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	cl := dialClient(t, c, 0)
	if err := cl.Put(context.Background(), 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The ack above is fsync-gated, so the origin's manager must already
	// report a durable watermark and at least one sync.
	stats := c.Durability(0).Stats()
	if stats.DurableCycle == 0 || stats.Syncs == 0 {
		t.Fatalf("durability stats empty after an acked write: %+v", stats)
	}
}
