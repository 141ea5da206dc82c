// Benchmarks regenerating the paper's evaluation artifacts at reduced
// scale: one benchmark per table/figure plus ablations of the design
// choices docs/ARCHITECTURE.md maps onto packages (pipelining, the LOT,
// representatives, switch-assisted broadcast, tree height).
// Each iteration simulates a full deployment at a representative offered
// load and reports measured throughput and median completion time as
// custom metrics (Mreq/s and median-ms). Run the cmd/canopus-bench tool
// for the full-resolution figures.
package canopus_test

import (
	"testing"
	"time"

	"canopus"
	"canopus/internal/harness"
	"canopus/internal/wire"
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

// --- Ablations (docs/ARCHITECTURE.md, paper section → package map) ---

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

// BenchmarkAblationHardwareBroadcast runs each leaf's sequencer over
// switch multicast (§4.3's hardware-assisted broadcast): in the leaves of
// nine, a member's forward to the others and its acknowledgement to every
// member are serialized once and replicated by the ToR switch; the one
// delivery order is the sequencer's, as in BenchmarkAblationTreeHeight2,
// its software twin.
func BenchmarkAblationHardwareBroadcast(b *testing.B) {
	benchRun(b, harness.Spec{System: harness.Canopus, Groups: 3, PerGroup: 9, WriteRatio: 0.2,
		SwitchBcast: true}, 1e6)
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
