package livecluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"canopus/admin"
	"canopus/internal/core"
	"canopus/internal/wal"
)

// family sums one metric family across whatever label sets a scrape
// returned.
func family(series map[string]float64, name string) float64 {
	var total float64
	for key, v := range series {
		n := key
		if j := strings.IndexByte(n, '{'); j >= 0 {
			n = n[:j]
		}
		if n == name {
			total += v
		}
	}
	return total
}

// TestAdminGatewayObservesLoad drives client traffic through a cluster
// with admin gateways and asserts the operations plane sees it: the
// cycle-commit counter, the applied watermark and the timer-lateness
// histogram advance between scrapes, /status parses with live
// membership, and POST /snapshot is accepted on a durable deployment.
func TestAdminGatewayObservesLoad(t *testing.T) {
	disks := []*wal.MemFS{wal.NewMemFS(), wal.NewMemFS(), wal.NewMemFS()}
	c, err := Start(durableConfig(disks))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	ctx := context.Background()
	gw := admin.New(c.AdminAddr(0))

	h, err := gw.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}

	before, err := gw.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cl := dialClient(t, c, 0)
	const n = 100
	for i := 0; i < n; i++ {
		if err := cl.Put(ctx, uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	after, err := gw.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"canopus_core_cycles_committed_total",
		"canopus_core_cycle_applied",
		"canopus_client_requests_total",
		"canopus_wal_appends_total",
		"canopus_transport_timer_late_seconds_count",
	} {
		if family(after, name) <= family(before, name) {
			t.Errorf("%s did not advance under load: %v -> %v",
				name, family(before, name), family(after, name))
		}
	}
	if family(after, "canopus_client_requests_total") < n {
		t.Errorf("canopus_client_requests_total = %v, want >= %d",
			family(after, "canopus_client_requests_total"), n)
	}

	st, err := gw.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != "ok" || st.Applied == 0 || len(st.Membership) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if got := len(st.Membership[0].Members); got != 3 {
		t.Fatalf("membership reports %d members, want 3", got)
	}
	if st.Durability == nil || st.Durability.DurableCycle == 0 {
		t.Fatalf("durable deployment reports no durability state: %+v", st.Durability)
	}

	// POST /snapshot sets the request flag; the durability goroutine
	// honors it at the next sync, so a snapshot appears even though the
	// cadence (4) may not have elapsed since the last one.
	snaps := func() float64 {
		series, err := gw.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return family(series, "canopus_wal_snapshots_total")
	}
	base := snaps()
	if err := gw.TriggerSnapshot(ctx); err != nil {
		t.Fatalf("trigger snapshot: %v", err)
	}
	if err := cl.Put(ctx, 9999, []byte("post-snap")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for snaps() <= base {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot count stuck at %v after POST /snapshot", base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdminGatewayOffByDefault pins that clusters without Config.Admin
// spend nothing on the operations plane: no gateway listener, no
// registry.
func TestAdminGatewayOffByDefault(t *testing.T) {
	c, err := Start(Config{
		Nodes: 3,
		Node:  core.Config{CycleInterval: 2 * time.Millisecond, TickInterval: 2 * time.Millisecond},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(5 * time.Second)
	if addr := c.AdminAddr(0); addr != "" {
		t.Fatalf("admin gateway unexpectedly on at %s", addr)
	}
	if c.Registry() != nil {
		t.Fatal("registry allocated without Config.Admin or Config.Metrics")
	}
}
