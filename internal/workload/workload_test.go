package workload

import (
	"math/rand"
	"testing"
	"time"

	"canopus/internal/netsim"
	"canopus/internal/wire"
)

type sink struct {
	reads, writes uint64
	bytes         uint64
	samples       int
}

func (s *sink) Offer(reads, writes, readBytes, writeBytes uint32, samples []wire.ArrivalSample) {
	s.reads += uint64(reads)
	s.writes += uint64(writes)
	s.bytes += uint64(readBytes) + uint64(writeBytes)
	s.samples += len(samples)
}

func TestGeneratorRateAndMix(t *testing.T) {
	sim := netsim.NewSim()
	topo := netsim.SingleDC(1, 4, netsim.Params{})
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), 1)
	sinks := make([]*sink, 4)
	targets := make([]Target, 4)
	for i := range sinks {
		sinks[i] = &sink{}
		targets[i] = sinks[i]
	}
	rec := &Recorder{WarmFrom: 0, ArriveUntil: time.Second}
	g := NewGenerator(Config{Rate: 100_000, WriteRatio: 0.25, Seed: 3}, sim, runner, targets, rec)
	g.Start(time.Second)
	sim.RunUntil(time.Second)

	var reads, writes uint64
	for _, s := range sinks {
		reads += s.reads
		writes += s.writes
	}
	total := reads + writes
	if total < 90_000 || total > 110_000 {
		t.Fatalf("offered %d over 1s at rate 100k", total)
	}
	ratio := float64(writes) / float64(total)
	if ratio < 0.22 || ratio > 0.28 {
		t.Fatalf("write ratio %.3f, want ~0.25", ratio)
	}
	or, ow := g.Offered()
	if or != reads || ow != writes {
		t.Fatalf("Offered() mismatch: %d/%d vs %d/%d", or, ow, reads, writes)
	}
}

func TestRecorderArrivalWindow(t *testing.T) {
	rec := &Recorder{WarmFrom: time.Second, ArriveUntil: 2 * time.Second}
	b := &wire.Batch{Samples: []wire.ArrivalSample{
		{At: int64(500 * time.Millisecond), Count: 5},              // before warmup: dropped
		{At: int64(1500 * time.Millisecond), Count: 7},             // inside: counted
		{At: int64(2500 * time.Millisecond), Count: 9},             // after window: dropped
		{At: int64(1600 * time.Millisecond), Count: 3, Read: true}, // inside, read
	}}
	rec.RecordBatch(3*time.Second, b)
	if rec.Writes.Count() != 7 || rec.Reads.Count() != 3 {
		t.Fatalf("counted %d writes %d reads", rec.Writes.Count(), rec.Reads.Count())
	}
	if got := rec.All().Count(); got != 10 {
		t.Fatalf("All = %d", got)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mean := range []float64{0.5, 4, 40, 400} {
		n := 4000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, mean))
		}
		got := sum / float64(n)
		if got < mean*0.9-0.2 || got > mean*1.1+0.2 {
			t.Fatalf("poisson(%v) sample mean %v", mean, got)
		}
	}
	if poisson(rng, 0) != 0 {
		t.Fatal("poisson(0) != 0")
	}
}

func TestLocalReadsMode(t *testing.T) {
	sim := netsim.NewSim()
	topo := netsim.SingleDC(1, 1, netsim.Params{})
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), 1)
	s := &sink{}
	rec := &Recorder{WarmFrom: 0, ArriveUntil: time.Second}
	g := NewGenerator(Config{Rate: 10_000, WriteRatio: 0.2, LocalReads: true, Seed: 3},
		sim, runner, []Target{s}, rec)
	g.Start(500 * time.Millisecond)
	sim.RunUntil(600 * time.Millisecond)
	if s.reads != 0 {
		t.Fatalf("local-reads mode offered %d reads to the engine", s.reads)
	}
	if rec.Reads.Count() == 0 {
		t.Fatal("no local read latencies recorded")
	}
	if s.writes == 0 {
		t.Fatal("no writes offered")
	}
}
