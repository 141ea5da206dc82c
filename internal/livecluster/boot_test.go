package livecluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"canopus/admin"
	"canopus/internal/core"
	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/metrics"
	"canopus/internal/transport"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

// bootRunner binds the transport of a one-node deployment (node 0, its
// own only peer) and closes it when the test ends.
func bootRunner(t *testing.T) (*transport.Runner, *lot.Tree) {
	t.Helper()
	peers := map[wire.NodeID]string{}
	r, err := transport.NewRunner(0, "127.0.0.1:0", peers, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Logf = func(string, ...interface{}) {}
	peers[0] = r.Addr().String()
	t.Cleanup(r.Close)
	tree, err := lot.New(lot.Config{SuperLeaves: [][]wire.NodeID{{0}}})
	if err != nil {
		t.Fatal(err)
	}
	return r, tree
}

// TestBootRefusesJoinerWithDisk pins the one rule both hosts share: a
// joiner re-enters state-less, so Boot refuses it a disk — before it
// opens the disk or binds anything.
func TestBootRefusesJoinerWithDisk(t *testing.T) {
	runner, tree := bootRunner(t)
	disk := wal.NewMemFS()
	_, err := Boot(ReplicaConfig{
		Runner:     runner,
		Node:       core.Config{Tree: tree},
		Join:       true,
		Disk:       disk,
		ClientAddr: "127.0.0.1:0",
	})
	if err == nil || !strings.Contains(err.Error(), "joiner re-enters state-less and never opens a disk") {
		t.Fatalf("Boot(joiner with disk) = %v, want the joiner-without-disk refusal", err)
	}
	if names, _ := disk.List(); len(names) != 0 {
		t.Fatalf("refused joiner touched its disk: %v", names)
	}
}

// TestBootRefusesLeafTimeoutAtFetchTimeout: a LeafTimeout not above the
// FetchTimeout (canopus-server -leaf-timeout 20ms against the 50 ms
// default) would evict a leaf before its state's pull is overdue, so Boot
// refuses it before it opens the disk.
func TestBootRefusesLeafTimeoutAtFetchTimeout(t *testing.T) {
	runner, tree := bootRunner(t)
	disk := wal.NewMemFS()
	_, err := Boot(ReplicaConfig{
		Runner: runner,
		Node:   core.Config{Tree: tree, LeafTimeout: 20 * time.Millisecond},
		Disk:   disk,
	})
	if err == nil || !strings.Contains(err.Error(), "LeafTimeout 20ms must exceed FetchTimeout 50ms") {
		t.Fatalf("Boot(LeafTimeout 20ms) = %v, want the LeafTimeout refusal", err)
	}
	if names, _ := disk.List(); len(names) != 0 {
		t.Fatalf("refused replica touched its disk: %v", names)
	}
}

// healthz returns the gateway's /healthz status code and phase.
func healthz(t *testing.T, addr string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h admin.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, h.Status
}

// TestBootRecoversBeforeStart pins the bind-early/accept-late order that
// canopus-server and Start share: a durable replica booted over a disk
// that holds a WAL has its admin gateway bound and answering 503
// "recovering" until Start, then 200 "ok" with the replayed state — the
// recovered cycle and the pre-restart digest — in /status.
func TestBootRecoversBeforeStart(t *testing.T) {
	disk := wal.NewMemFS()
	c, err := Start(Config{
		Nodes:        1,
		Node:         core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:         7,
		LoggedStores: true,
		DataFS:       func(int) wal.FS { return disk },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := dialClient(t, c, 0)
	for i := 0; i < 20; i++ {
		if err := cl.Put(ctx, uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wantState uint64
	c.InspectStore(0, func(st *kvstore.Store) { wantState = st.StateDigest() })
	if !c.Stop(5 * time.Second) {
		t.Fatal("graceful stop did not drain")
	}
	durable := c.Durability(0).Stats().DurableCycle
	if durable == 0 {
		t.Fatal("no cycle reached the disk")
	}

	runner, tree := bootRunner(t)
	r, err := Boot(ReplicaConfig{
		Runner: runner,
		Node: core.Config{
			Tree:          tree,
			CycleInterval: 2 * time.Millisecond,
			TickInterval:  2 * time.Millisecond,
		},
		Disk:        disk,
		LoggedStore: true,
		ClientAddr:  "127.0.0.1:0",
		AdminAddr:   "127.0.0.1:0",
		Registry:    metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		runner.Close() // first: no machine turn may reach a closed node
		r.Close()
	}()
	addr := r.admin.Addr()
	if code, phase := healthz(t, addr); code != http.StatusServiceUnavailable || phase != "recovering" {
		t.Fatalf("/healthz before Start = %d %q, want 503 recovering", code, phase)
	}
	if s, err := admin.New(addr).Status(ctx); err != nil || s.Phase != "recovering" {
		t.Fatalf("/status before Start = %+v, %v", s, err)
	}

	runner.Attach(r.Node())
	go runner.Serve(nil)
	r.Start()
	if code, phase := healthz(t, addr); code != http.StatusOK || phase != "ok" {
		t.Fatalf("/healthz after Start = %d %q, want 200 ok", code, phase)
	}
	s, err := admin.New(addr).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Phase != "ok" || s.Applied < durable || s.Durability == nil || s.Durability.DurableCycle < durable {
		t.Fatalf("/status after Start = %+v, want the replayed cycle %d", s, durable)
	}
	if s.StateDigest != fmt.Sprintf("%016x", wantState) {
		t.Fatalf("/status state digest %s, want the pre-restart %016x", s.StateDigest, wantState)
	}
}
