package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"canopus/client"
	"canopus/internal/core"
	"canopus/internal/livecluster"
	"canopus/internal/metrics"
	"canopus/internal/wire"
	"canopus/internal/workload"
)

// Live benchmarks the real-socket path: an in-process loopback cluster
// of transport.Runner nodes (the same code cmd/canopus-server runs — no
// simulator anywhere), driven through the binary client protocol by the
// workload package's closed- and open-loop generators.
//
// Unlike the virtual-time experiments, these numbers depend on the host;
// the committed BENCH_live.json baseline is regenerated with
//
//	go run ./cmd/canopus-bench -exp live -quick -json BENCH_live.json
//
// and CI's live-smoke job gates only its schedule-anchored metrics (see
// cmd/benchdiff).
//
// Live also doubles as the end-to-end smoke check: it verifies complete
// reply accounting (every accepted request answered) and a clean
// graceful shutdown, and exits non-zero otherwise.
func Live(o *Options) {
	type clusterShape struct {
		label string
		sls   [][]wire.NodeID
	}
	shapes := []clusterShape{
		{"3 nodes / 1 super-leaf", [][]wire.NodeID{{0, 1, 2}}},
	}
	if !o.Quick {
		shapes = append(shapes, clusterShape{
			"9 nodes / 3 super-leaves", [][]wire.NodeID{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}},
		})
	}
	// The open-loop rate is the headline throughput metric: it must sit
	// well above the old single-threaded commit path's comfort zone (the
	// pre-pipeline baseline topped out near 18k/s completed because only
	// 20k/s was offered) while staying comfortably inside what the
	// commit path absorbs loss-free on small CI hosts (a 1-CPU
	// container sustains >150k/s; the gate fails the run on any lost
	// reply, so an overcommitted rate is self-diagnosing).
	warm, dur := 300*time.Millisecond, 1200*time.Millisecond
	closedWorkers, openRate := 64, 60e3
	if !o.Quick {
		warm, dur = 500*time.Millisecond, 3*time.Second
		closedWorkers, openRate = 128, 150e3
	}

	tbl := &metrics.Table{Header: []string{
		"cluster", "mode", "offered", "done", "req/s", "p50", "p99", "allocs/req",
	}}
	liveMetrics := map[string]float64{}

	for si, shape := range shapes {
		// Each shape gets a fresh registry: instrument registration is
		// idempotent per (name, labels), so reusing one registry across
		// shapes would pin the sampled closures to the first shape's
		// nodes. The caller's registry observes the headline shape.
		reg := metrics.NewRegistry()
		if si == 0 && o.Registry != nil {
			reg = o.Registry
		}
		liveCfg := livecluster.Config{
			SuperLeaves: shape.sls,
			Node: core.Config{
				CycleInterval: 2 * time.Millisecond,
				TickInterval:  2 * time.Millisecond,
				MaxBatch:      4096,
			},
			Seed:    o.Seed,
			Metrics: reg,
		}
		if o.DataDir != "" {
			liveCfg.DataDir = filepath.Join(o.DataDir, fmt.Sprintf("shape-%d", si))
		}
		cluster, err := livecluster.Start(liveCfg)
		if err != nil {
			fail("live: start %s: %v", shape.label, err)
		}
		conns := dialAll(cluster)

		// Closed loop: latency under self-limiting load, with end-to-end
		// allocation accounting (client encode + transport + consensus +
		// reply fan-out, all in this process). Warmup runs as a separate
		// unmeasured pass so the Mallocs bracket covers exactly the
		// requests Completed counts — allocs_per_request is CI-gated and
		// must not shift when the warm/measure ratio is tuned.
		workload.RunLive(workload.LiveConfig{
			Concurrency: closedWorkers,
			Duration:    warm,
			WriteRatio:  0.2,
			KeyDist:     o.KeyDist,
			Seed:        o.Seed + 7,
		}, conns)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		closed := workload.RunLive(workload.LiveConfig{
			Concurrency: closedWorkers,
			Duration:    dur - warm,
			WriteRatio:  0.2,
			KeyDist:     o.KeyDist,
			Seed:        o.Seed,
		}, conns)
		runtime.ReadMemStats(&after)
		allocsPerReq := float64(after.Mallocs-before.Mallocs) / float64(closed.Completed+1)
		if closed.Completed != closed.Offered || closed.Failed != 0 {
			fail("live: %s closed loop lost replies: offered %d, completed %d, failed %d",
				shape.label, closed.Offered, closed.Completed, closed.Failed)
		}
		addRow(tbl, shape.label, "closed", closed, allocsPerReq)

		// Open loop: offered-rate throughput, as in the paper's sweeps.
		open := workload.RunLive(workload.LiveConfig{
			OpenRate:   openRate,
			Duration:   dur,
			Warmup:     warm,
			WriteRatio: 0.2,
			KeyDist:    o.KeyDist,
			Seed:       o.Seed + 1,
		}, conns)
		if open.Lost != 0 || open.Failed != 0 {
			fail("live: %s open loop lost replies: offered %d, completed %d, failed %d, lost %d",
				shape.label, open.Offered, open.Completed, open.Failed, open.Lost)
		}
		addRow(tbl, shape.label, "open", open, -1)

		for _, c := range conns {
			c.(ClientDoer).Client.Close()
		}
		if !cluster.Stop(10 * time.Second) {
			fail("live: %s did not shut down cleanly", shape.label)
		}

		if si == 0 {
			liveMetrics["closed_throughput_req_s"] = closed.Throughput()
			liveMetrics["closed_p50_ms"] = msFloat(closed.All().Median())
			liveMetrics["closed_p99_ms"] = msFloat(closed.All().Quantile(0.99))
			liveMetrics["open_throughput_req_s"] = open.Throughput()
			liveMetrics["open_p99_ms"] = msFloat(open.All().Quantile(0.99))
			liveMetrics["allocs_per_request"] = allocsPerReq
			// Stage attribution from the registry (summed over nodes):
			// how much consensus, transport and durability work the run's
			// requests cost. Informational — benchdiff gates only its
			// schedule-anchored keys.
			liveMetrics["stage_cycles_committed"] = sumFamily(reg, "canopus_core_cycles_committed_total")
			liveMetrics["stage_client_requests"] = sumFamily(reg, "canopus_client_requests_total")
			liveMetrics["stage_transport_writes"] = sumFamily(reg, "canopus_transport_writes_total")
			liveMetrics["stage_transport_sent_mb"] = sumFamily(reg, "canopus_transport_sent_bytes_total") / (1 << 20)
			if o.DataDir != "" {
				liveMetrics["stage_wal_fsyncs"] = sumFamily(reg, "canopus_wal_fsyncs_total")
			}
		}
	}

	fmt.Fprint(o.Out, tbl.String())
	fmt.Fprintln(o.Out, "live: all replies accounted for; graceful shutdown clean")

	if o.JSONOut != "" {
		writeLiveJSON(o.JSONOut, liveMetrics)
		fmt.Fprintf(o.Out, "live: wrote %s\n", o.JSONOut)
	}
}

// ClientDoer adapts the public client package to the workload.Doer
// shape, using the low-level callback primitive so the benchmark hot
// path stays goroutine- and allocation-lean (the workload's long-lived
// done callback flows straight through; no adapter closure per op). The
// round-trip benchmark in the root package uses it too.
type ClientDoer struct{ Client *client.Client }

// Do implements workload.Doer.
func (d ClientDoer) Do(op wire.Op, key uint64, val []byte, done func(ok bool)) {
	d.Client.AsyncOk(client.Op{Kind: op, Key: key, Val: val}, done)
}

func dialAll(cluster *livecluster.Cluster) []workload.Doer {
	conns := make([]workload.Doer, cluster.NumNodes())
	for i := range conns {
		cl, err := client.New(client.Config{Endpoints: []string{cluster.ClientAddr(i)}})
		if err != nil {
			fail("live: client for node %d: %v", i, err)
		}
		conns[i] = ClientDoer{Client: cl}
	}
	return conns
}

func addRow(tbl *metrics.Table, label, mode string, res *workload.LiveResult, allocsPerReq float64) {
	all := res.All()
	allocs := "-"
	if allocsPerReq >= 0 {
		allocs = fmt.Sprintf("%.1f", allocsPerReq)
	}
	tbl.Add(label, mode,
		fmt.Sprint(res.Offered), fmt.Sprint(res.Completed),
		metrics.FormatRate(res.Throughput()),
		ms(all.Median()), ms(all.Quantile(0.99)), allocs)
}

func msFloat(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sumFamily folds one metric family's series (all nodes) into a single
// number.
func sumFamily(reg *metrics.Registry, name string) float64 {
	var total float64
	reg.Each(func(n string, _ []metrics.Label, v float64) {
		if n == name {
			total += v
		}
	})
	return total
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// liveJSON is the BENCH_live.json schema cmd/benchdiff consumes.
type liveJSON struct {
	Comment string             `json:"_comment"`
	GOOS    string             `json:"goos"`
	GOARCH  string             `json:"goarch"`
	Metrics map[string]float64 `json:"metrics"`
}

func writeLiveJSON(path string, m map[string]float64) {
	rounded := make(map[string]float64, len(m))
	for k, v := range m {
		rounded[k] = float64(int64(v*1000+0.5)) / 1000
	}
	doc := liveJSON{
		Comment: "Live-cluster (real loopback TCP) baseline from `canopus-bench -exp live -quick -json BENCH_live.json`. " +
			"Wall-clock numbers vary across hosts: CI's live-smoke job gates only the schedule-anchored metrics " +
			"(allocs_per_request, closed_p50_ms, closed_throughput_req_s, open_throughput_req_s) via cmd/benchdiff; " +
			"the rest are recorded for humans.",
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Metrics: rounded,
	}
	buf, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fail("live: marshal %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fail("live: write %s: %v", path, err)
	}
}
