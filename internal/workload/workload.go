// Package workload generates the paper's client load against simulated
// clusters and measures completion times.
//
// The paper's methodology (§8.1): clients uniformly distributed across
// machines, each connected to a node in its own rack/datacenter, issuing
// 16-byte key-value requests as a Poisson process at a given rate, with
// a configurable write ratio; throughput is the offered rate at which
// median completion time stays under a threshold.
//
// Generation is "fluid": arrivals are aggregated per (node, window) into
// Poisson-sampled counts instead of one event per request, so simulated
// load scales to millions of requests per second while event counts stay
// proportional to protocol messages. Latency is tracked by embedding a
// few timestamped arrival samples in every batch; when the batch
// commits, each sample contributes its weighted completion time.
package workload

import (
	"math"
	"math/rand"
	"time"

	"canopus/internal/metrics"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

// Target is where a node's aggregated arrivals go: an adapter over the
// protocol node (Canopus, EPaxos, Zab) owned by the harness.
type Target interface {
	// Offer delivers one window's arrivals at one node. readBytes /
	// writeBytes are the modeled wire payloads of the read and write
	// requests respectively (protocols that do not disseminate reads
	// ignore readBytes). Samples carry both read and write samples.
	Offer(reads, writes uint32, readBytes, writeBytes uint32, samples []wire.ArrivalSample)
}

// Config parameterizes the generated load.
type Config struct {
	// Rate is the aggregate offered load in requests/second across all
	// nodes (split uniformly, as the paper's clients are).
	Rate float64
	// WriteRatio is the fraction of requests that are writes.
	WriteRatio float64
	// LocalReads, when true, answers reads at the serving node without
	// involving the protocol engine (ZooKeeper semantics): their latency
	// is the client RTT plus the node's CPU backlog.
	LocalReads bool
	// Seed randomizes arrivals.
	Seed int64
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// The generator's fixed model.
const (
	// valueBytes is the write payload size; the paper uses 16-byte
	// key-value pairs (8-byte key + 8-byte value).
	valueBytes = 8
	// window is the aggregation granularity.
	window = time.Millisecond
	// samplesPerWindow bounds latency samples per type per window.
	samplesPerWindow = 3
	// clientCPU is the per-request connection-handling cost charged to
	// the serving node (parse, dispatch, reply) — a major per-node cost
	// at high load.
	clientCPU = 2 * time.Microsecond
	// localReadRTT is the modeled client-to-node round trip of a read
	// answered under LocalReads.
	localReadRTT = 250 * time.Microsecond
)

// Request wire overhead: the encoded request size for an 8-byte-keyed
// write with valueBytes of payload (see wire.Request.PayloadBytes).
const writeRequestBytes uint32 = 29 + valueBytes

const readRequestBytes uint32 = 29

// Recorder accumulates completion-time observations for requests that
// ARRIVED inside the measurement window [WarmFrom, ArriveUntil). The
// filter is on arrival, not completion: the driver keeps the simulation
// running past the window so in-flight requests drain and are counted;
// requests a saturated system never completes are (correctly) missing
// from the throughput.
type Recorder struct {
	WarmFrom    time.Duration
	ArriveUntil time.Duration

	Reads  metrics.Histogram
	Writes metrics.Histogram
}

// RecordBatch folds the samples of a committed batch, completing at
// time now, into the histograms.
func (r *Recorder) RecordBatch(now time.Duration, b *wire.Batch) {
	for _, s := range b.Samples {
		at := time.Duration(s.At)
		if at < r.WarmFrom || at >= r.ArriveUntil {
			continue
		}
		lat := now - at
		if lat < 0 {
			continue
		}
		if s.Read {
			r.Reads.Add(lat, uint64(s.Count))
		} else {
			r.Writes.Add(lat, uint64(s.Count))
		}
	}
}

// RecordRead folds a locally served read group (arriving now).
func (r *Recorder) RecordRead(now, lat time.Duration, count uint64) {
	if now < r.WarmFrom || now >= r.ArriveUntil {
		return
	}
	r.Reads.Add(lat, count)
}

// All merges read and write distributions (the paper reports "request
// completion time" over the full mix).
func (r *Recorder) All() *metrics.Histogram {
	var h metrics.Histogram
	h.Merge(&r.Reads)
	h.Merge(&r.Writes)
	return &h
}

// Generator drives Poisson arrivals into targets on a simulation.
type Generator struct {
	cfg      Config
	sim      *netsim.Sim
	runner   *netsim.Runner
	targets  []Target
	recorder *Recorder
	rngs     []*rand.Rand
	end      time.Duration

	offeredReads  uint64
	offeredWrites uint64
}

// NewGenerator wires a generator over one target per node.
func NewGenerator(cfg Config, sim *netsim.Sim, runner *netsim.Runner, targets []Target, rec *Recorder) *Generator {
	cfg.fill()
	g := &Generator{cfg: cfg, sim: sim, runner: runner, targets: targets, recorder: rec}
	for i := range targets {
		g.rngs = append(g.rngs, rand.New(rand.NewSource(cfg.Seed+int64(i)*104729)))
	}
	return g
}

// Offered returns the number of requests generated so far.
func (g *Generator) Offered() (reads, writes uint64) { return g.offeredReads, g.offeredWrites }

// Start schedules generation from now until end (virtual time).
func (g *Generator) Start(end time.Duration) {
	g.end = end
	for node := range g.targets {
		n := node
		// Stagger first windows so nodes do not tick in lockstep.
		offset := time.Duration(g.rngs[n].Int63n(int64(window)))
		g.sim.After(window+offset, func() { g.window(n) })
	}
}

// window fires at the end of one aggregation window at one node.
func (g *Generator) window(node int) {
	now := g.sim.Now()
	if now > g.end {
		return
	}
	if !g.runner.Alive(wire.NodeID(node)) {
		// A crashed node serves nothing — not even local reads — and its
		// offered load is lost, so it must not be recorded as completed.
		// Keep the window clock running so generation resumes the moment
		// a fault plan restarts the node.
		g.sim.After(window, func() { g.window(node) })
		return
	}
	rng := g.rngs[node]
	perNode := g.cfg.Rate / float64(len(g.targets))
	w := window.Seconds()
	reads := poisson(rng, perNode*(1-g.cfg.WriteRatio)*w)
	writes := poisson(rng, perNode*g.cfg.WriteRatio*w)
	g.offeredReads += uint64(reads)
	g.offeredWrites += uint64(writes)

	// Client connection handling burns serving-node CPU regardless of
	// protocol.
	if total := reads + writes; total > 0 {
		g.runner.UseCPU(wire.NodeID(node), time.Duration(total)*clientCPU)
	}

	samples := g.sample(rng, now, writes, false, nil)
	if g.cfg.LocalReads {
		if reads > 0 {
			// Reads complete locally: latency = client RTT + CPU queue.
			lat := localReadRTT + g.runner.CPUBacklog(wire.NodeID(node))
			g.recorder.RecordRead(now, lat, uint64(reads))
		}
		if writes > 0 {
			g.targets[node].Offer(0, uint32(writes), 0,
				uint32(writes)*writeRequestBytes, samples)
		}
	} else {
		samples = g.sample(rng, now, reads, true, samples)
		if reads+writes > 0 {
			g.targets[node].Offer(uint32(reads), uint32(writes),
				uint32(reads)*readRequestBytes,
				uint32(writes)*writeRequestBytes, samples)
		}
	}

	g.sim.After(window, func() { g.window(node) })
}

// sample appends up to samplesPerWindow weighted arrival samples with
// times uniform over the just-elapsed window.
func (g *Generator) sample(rng *rand.Rand, now time.Duration, count int, read bool, into []wire.ArrivalSample) []wire.ArrivalSample {
	if count <= 0 {
		return into
	}
	k := samplesPerWindow
	if count < k {
		k = count
	}
	base, rem := count/k, count%k
	for i := 0; i < k; i++ {
		c := base
		if i < rem {
			c++
		}
		at := now - time.Duration(rng.Int63n(int64(window)))
		into = append(into, wire.ArrivalSample{At: int64(at), Count: uint32(c), Read: read})
	}
	return into
}

// poisson draws from Poisson(mean): Knuth's method for small means, a
// normal approximation beyond.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 32 {
		l := math.Exp(-mean)
		k, p := 0, 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := mean + math.Sqrt(mean)*rng.NormFloat64()
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}
