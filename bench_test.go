// Benchmarks regenerating the paper's evaluation artifacts at reduced
// scale: one benchmark per table/figure plus the DESIGN.md ablations.
// Each iteration simulates a full deployment at a representative offered
// load and reports measured throughput and median completion time as
// custom metrics (Mreq/s and median-ms). Run the cmd/canopus-bench tool
// for the full-resolution figures.
package canopus_test

import (
	"testing"
	"time"

	"canopus"
	"canopus/client"
	"canopus/internal/harness"
	"canopus/internal/kvstore"
	"canopus/internal/wire"
	"canopus/internal/workload"
)

// benchWindows keeps each iteration around a second of virtual time.
const (
	benchWarm    = 200 * time.Millisecond
	benchMeasure = 500 * time.Millisecond
)

func benchRun(b *testing.B, spec harness.Spec, rate float64) {
	b.Helper()
	spec.Warmup, spec.Measure = benchWarm, benchMeasure
	if spec.MultiDC {
		spec.Warmup = time.Second
	}
	var tput, medianMS float64
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i + 1)
		r := harness.Run(spec, rate)
		tput = r.Throughput
		medianMS = float64(r.Median) / float64(time.Millisecond)
	}
	b.ReportMetric(tput/1e6, "Mreq/s")
	b.ReportMetric(medianMS, "median-ms")
}

// --- Figure 4(a)/(b): single-DC scaling, 27 nodes ---

func BenchmarkFig4aCanopus20Writes(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, Groups: 3, PerGroup: 9, WriteRatio: 0.2}, 1.5e6)
}

func BenchmarkFig4aCanopus100Writes(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, Groups: 3, PerGroup: 9, WriteRatio: 1.0}, 800e3)
}

func BenchmarkFig4aEPaxos5ms(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.EPaxos, Groups: 3, PerGroup: 9, WriteRatio: 0.2,
		EPaxosBatch: 5 * time.Millisecond}, 500e3)
}

func BenchmarkFig4bEPaxos2ms(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.EPaxos, Groups: 3, PerGroup: 9, WriteRatio: 0.2,
		EPaxosBatch: 2 * time.Millisecond}, 400e3)
}

func BenchmarkFig4bCanopusAt70(b *testing.B) {
	// The paper's 70%-of-max operating point for completion times.
	benchRun(b, harness.Spec{System: harness.Canopus, Groups: 3, PerGroup: 9, WriteRatio: 0.2}, 1.6e6)
}

// --- Figure 5: ZooKeeper vs ZKCanopus, 27 nodes ---

func BenchmarkFig5ZooKeeper(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Zab, Groups: 3, PerGroup: 9, WriteRatio: 0.2}, 200e3)
}

func BenchmarkFig5ZKCanopus(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.ZKCanopus, Groups: 3, PerGroup: 9, WriteRatio: 0.2}, 1e6)
}

// --- Figure 6: multi-DC (Table 1 latencies) ---

func BenchmarkFig6Canopus3DC(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, MultiDC: true, Groups: 3, PerGroup: 3, WriteRatio: 0.2}, 1.2e6)
}

func BenchmarkFig6EPaxos3DC(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.EPaxos, MultiDC: true, Groups: 3, PerGroup: 3, WriteRatio: 0.2}, 500e3)
}

func BenchmarkFig6Canopus7DC(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, MultiDC: true, Groups: 7, PerGroup: 3, WriteRatio: 0.2}, 1.5e6)
}

// --- Figure 7: write-ratio sweep, 3 DCs ---

func BenchmarkFig7Canopus1Write(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, MultiDC: true, Groups: 3, PerGroup: 3, WriteRatio: 0.01}, 1.5e6)
}

func BenchmarkFig7Canopus50Writes(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, MultiDC: true, Groups: 3, PerGroup: 3, WriteRatio: 0.5}, 800e3)
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationPipelining contrasts §7.1 pipelining off (1 in-flight
// cycle, one commit per ~max-RTT) against the default WAN pipeline at a
// load the unpipelined deployment cannot absorb: watch median-ms
// diverge while the pipelined run holds steady.
func BenchmarkAblationPipeliningOff(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, MultiDC: true, Groups: 3, PerGroup: 3,
		WriteRatio: 0.2, MaxInFlight: 1}, 600e3)
}

func BenchmarkAblationPipeliningOn(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, MultiDC: true, Groups: 3, PerGroup: 3,
		WriteRatio: 0.2}, 600e3)
}

// BenchmarkAblationFlatBroadcast removes the LOT: all 27 nodes in one
// super-leaf, i.e. topology-oblivious all-to-all reliable broadcast.
func BenchmarkAblationFlatBroadcast(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.CanopusFlat, Groups: 3, PerGroup: 9, WriteRatio: 0.2}, 500e3)
}

func BenchmarkAblationTreeCanopus(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, Groups: 3, PerGroup: 9, WriteRatio: 0.2}, 500e3)
}

// BenchmarkAblationRepresentatives varies the super-leaf representative
// count (§4.5).
func BenchmarkAblationRepresentatives1(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, Groups: 3, PerGroup: 9, WriteRatio: 0.2, NumReps: 1}, 1e6)
}

func BenchmarkAblationRepresentatives3(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, Groups: 3, PerGroup: 9, WriteRatio: 0.2, NumReps: 3}, 1e6)
}

// BenchmarkAblationHardwareBroadcast swaps the Raft reliable broadcast
// for switch-assisted atomic broadcast (§4.3).
func BenchmarkAblationHardwareBroadcast(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, Groups: 3, PerGroup: 9, WriteRatio: 0.2,
		SwitchBcast: true}, 1e6)
}

// BenchmarkAblationWriteLeases measures the §7.2 read path: explicit
// requests against a small cluster, read-mostly on unleased keys, which
// answer locally without a consensus-cycle delay.
func BenchmarkAblationWriteLeases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := canopus.MustSimCluster(canopus.SimOptions{
			Racks: 2, NodesPerRack: 3, Seed: int64(i + 1),
			Node: canopus.Config{WriteLeases: true},
		})
		var replies int
		c.OnReply(0, func(*canopus.Request, []byte) { replies++ })
		for s := 0; s < 200; s++ {
			seq := uint64(s + 1)
			c.At(time.Duration(s+1)*time.Millisecond, func() {
				c.SubmitRequest(0, canopus.Read(1, seq, seq%16+1000))
			})
		}
		c.RunUntil(time.Second)
		if replies != 200 {
			b.Fatalf("replies = %d", replies)
		}
	}
}

// BenchmarkAblationTreeHeight compares LOT heights at 27 nodes: 9
// super-leaves of 3 with fanout 3 gives height 3 (one extra round)
// versus the flat height-2 arrangement of 3 super-leaves of 9.
func BenchmarkAblationTreeHeight3(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, Groups: 9, PerGroup: 3, WriteRatio: 0.2}, 1e6)
}

func BenchmarkAblationTreeHeight2(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, Groups: 3, PerGroup: 9, WriteRatio: 0.2}, 1e6)
}

// BenchmarkCodec measures the wire codec itself: encode+decode of a
// realistic 100-write proposal.
func BenchmarkCodec(b *testing.B) {
	reqs := make([]canopus.Request, 100)
	for i := range reqs {
		reqs[i] = canopus.Write(uint64(i%10), uint64(i), uint64(i), []byte("12345678"))
	}
	msg := &wire.Proposal{
		Cycle: 7, Round: 1, Origin: 1, Num: 42,
		Batches: []*canopus.Batch{{Origin: 1, Reqs: reqs, NumWrite: 100}},
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := msg.AppendTo(nil)
		if _, _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(buf)))
	}
}

// --- Apply stage: per-cycle bulk apply ---

// BenchmarkCommitApply measures the first step of the apply stage for one
// large committed cycle in isolation: a fixed batch of writes applied to
// the replica store front to back on one goroutine, as the stage does.
// Mreq/s is writes applied per second; the absolute number is
// host-dependent, but its drift on one host tracks the apply path's cost,
// which is why the benchdiff gate watches it.
func BenchmarkCommitApply(b *testing.B) {
	const cycleOps = 65536
	reqs := make([]wire.Request, cycleOps)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpWrite, Key: uint64(i*2654435761) % 65536, Val: []byte("12345678")}
	}
	st := kvstore.New()
	apply := func() {
		for i := range reqs {
			st.ApplyWrite(&reqs[i])
		}
	}
	// Each iteration applies the cycle several times so the CI gate's
	// single-iteration run (-benchtime=1x) measures tens of
	// milliseconds, not one noisy map walk.
	const cyclesPerIter = 8
	apply() // warm: build the maps once so 1x CI runs measure steady state
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for c := 0; c < cyclesPerIter; c++ {
			apply()
		}
	}
	b.ReportMetric(float64(cycleOps*cyclesPerIter)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mreq/s")
}

// --- Client API round trip ---

// BenchmarkClientRoundTrip measures the public canopus/client package
// end to end against a live loopback cluster: the client protocol over real
// sockets, through consensus, back through the reply fan-out — the
// paper's client interaction layer as applications see it. The numbers
// are wall-clock but cycle-paced (the 2ms CycleInterval dominates the
// latency), so throughput and MEAN latency are stable enough for the
// benchdiff drift gate (the median is bimodal across cycle-phase bucket
// boundaries and is deliberately not reported);
// BENCH_baseline.json carries the committed values.
func BenchmarkClientRoundTrip(b *testing.B) {
	var tput, meanMS float64
	for i := 0; i < b.N; i++ {
		cluster, err := canopus.StartLiveCluster(canopus.LiveOptions{
			Nodes: 3,
			Node: canopus.Config{
				CycleInterval: 2 * time.Millisecond,
				TickInterval:  2 * time.Millisecond,
				MaxBatch:      4096,
			},
			Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		clients := make([]*client.Client, cluster.NumNodes())
		conns := make([]workload.Doer, cluster.NumNodes())
		for j := range conns {
			cl, err := client.New(client.Config{Endpoints: []string{cluster.Endpoint(j)}})
			if err != nil {
				b.Fatal(err)
			}
			clients[j] = cl
			conns[j] = harness.ClientDoer{Client: cl}
		}
		res := workload.RunLive(workload.LiveConfig{
			Concurrency: 32,
			Duration:    700 * time.Millisecond,
			Warmup:      200 * time.Millisecond,
			WriteRatio:  0.2,
			Seed:        int64(i + 1),
		}, conns)
		if res.Completed != res.Offered || res.Failed != 0 {
			b.Fatalf("lost replies: offered %d, completed %d, failed %d",
				res.Offered, res.Completed, res.Failed)
		}
		tput = res.Throughput()
		meanMS = float64(res.All().Mean()) / float64(time.Millisecond)
		for _, cl := range clients {
			cl.Close()
		}
		cluster.Close()
	}
	b.ReportMetric(tput/1e6, "Mreq/s")
	b.ReportMetric(meanMS, "mean-ms")
}
