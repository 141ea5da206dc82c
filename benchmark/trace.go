package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"canopus/client"
	"canopus/internal/metrics"
	"canopus/internal/wire"
)

// spanSampleEvery thins the per-request spans written to the trace file:
// every request is measured, one in spanSampleEvery is written out.
const spanSampleEvery = 16

// probeShare is the rate of each kind of probe as a share of the phase's
// request rate, and probeMinRate its floor in probes per second.
const (
	probeShare   = 0.01
	probeMinRate = 100
)

// singleShare is the share of -seconds the single-node baseline runs for
// (5 s of the full 40).
const singleShare = 0.125

// probes are the extra operations interleaved in the traced mid phase.
// Each kind stops at a different depth of the stack, so that differences
// between them isolate a layer:
//
//	client.edge               Stale Get through the client: encode, TCP,
//	                          port decode, Node.ReadLocal, reply; no cycle
//	livecluster.submit_commit Cluster.Submit of a write: no socket and no
//	                          client codec, but a full consensus cycle
type probes struct {
	d     *deployment
	spans *spanLog
	name  string // span name of the submit probe
	rate  float64
	edge  bool // also send client.edge probes

	mu       sync.Mutex
	edgeUs   []int32
	submitUs []int32
	failed   int
	inflight sync.WaitGroup
}

func (p *probes) record(kind string, start time.Time, ok bool, into *[]int32) {
	end := time.Now()
	p.spans.add(kind, start, end, 0)
	p.mu.Lock()
	if ok {
		*into = append(*into, int32(end.Sub(start)/time.Microsecond))
	} else {
		p.failed++
	}
	p.mu.Unlock()
	p.inflight.Done()
}

// run sends probes from base until base+dur and waits for their replies.
func (p *probes) run(base time.Time, dur time.Duration) {
	pc := newPacer()
	defer pc.close()
	gap := time.Duration(float64(time.Second) / p.rate)
	val := make([]byte, p.d.keys.valueBytes)
	time.Sleep(time.Until(base))
	for i := 0; time.Since(base) < dur; i++ {
		conn := i % len(p.d.clients)
		if p.edge {
			start := time.Now()
			p.inflight.Add(1)
			op := client.Op{Kind: client.OpGet, Key: uint64(i % keySpace), Consistency: client.Stale}
			p.d.clients[conn].Async(op, func(_ client.Result, err error) {
				p.record("client.edge", start, err == nil, &p.edgeUs)
			})
		}
		// Probe writes go to keys of their own, outside the measured key
		// space, so the gate's counters stay the generators'.
		key := uint64(2*keySpace + i%1024)
		putValue(val, uint32(key), uint32(i))
		start := time.Now()
		p.inflight.Add(1)
		p.d.cluster.Submit(p.d.connNode[conn], wire.OpWrite, key, append([]byte(nil), val...), func(_ []byte, ok bool) {
			p.record(p.name, start, ok, &p.submitUs)
		})
		pc.sleep(gap)
	}
	p.inflight.Wait()
}

func probeRate(rate float64) float64 {
	if r := rate * probeShare; r > probeMinRate {
		return r
	}
	return probeMinRate
}

// usSummary is the p50 and p99, in ms, of microsecond samples.
func usSummary(us []int32) (p50, p99 float64) {
	slices.Sort(us)
	return float64(percentile(us, 0.5)) / 1000, float64(percentile(us, 0.99)) / 1000
}

// registrySums folds the registry into one sum per metric name.
func registrySums(reg *metrics.Registry) map[string]float64 {
	sums := map[string]float64{}
	reg.Each(func(name string, _ []metrics.Label, v float64) { sums[name] += v })
	return sums
}

// gauges keeps the largest value seen of the gauges that matter, sampled
// at the phase's 10 Hz tick.
type gauges struct {
	reg                        *metrics.Registry
	inflight, applyLag, applyQ float64
}

func (g *gauges) sample() {
	var inflight float64 // summed over the nodes
	g.reg.Each(func(name string, _ []metrics.Label, v float64) {
		switch name {
		case "canopus_client_inflight_requests":
			inflight += v
		case "canopus_core_apply_lag_cycles":
			g.applyLag = max(g.applyLag, v)
		case "canopus_core_apply_queue_depth":
			g.applyQ = max(g.applyQ, v)
		}
	})
	g.inflight = max(g.inflight, inflight)
}

// runTraced is the separate traced run that yields the per-layer
// metrics: the workload's warm and mid phase with spans kept in memory,
// probes interleaved, the registry read before and after, then a
// single-node baseline and the replays of layers.go. Nothing measured
// here is an end-to-end metric.
func runTraced(w *workload, seed int64, seconds float64, dir string) (*result, error) {
	res := newResult(w, seed, seconds, true)
	spans := newSpanLog()
	var clock *fsClock
	if w.durable {
		clock = &fsClock{spans: spans}
	}
	d, err := setup(w, seed, dir, clock)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res.Conns = len(d.clients)
	r := newRunner(d)
	rate, dur := w.rates[1], phaseDur(seconds, midShare)

	if _, err := r.open("warm", rate, phaseDur(seconds, warmShare), 1, nil, nil); err != nil {
		return nil, err
	}
	// The same phase untraced first: the tracing overhead is the
	// difference between the two.
	plain, err := r.open("mid", rate, dur, midSlices, nil, nil)
	if err != nil {
		return nil, err
	}
	res.count(plain)

	if clock != nil {
		clock.reset()
	}
	r.traced = true
	pr := &probes{d: d, spans: spans, name: "livecluster.submit_commit", rate: probeRate(rate), edge: true}
	g := &gauges{reg: d.reg}
	before := registrySums(d.reg)
	var retriesBefore uint64
	for _, c := range d.clients {
		retriesBefore += c.Stats().Retries
	}
	traced, err := r.open("mid", rate, dur, midSlices, g.sample, pr.run)
	if err != nil {
		return nil, err
	}
	after := registrySums(d.reg)
	r.traced = false
	res.count(traced)
	var retries uint64
	for _, c := range d.clients {
		retries += c.Stats().Retries
	}
	retries -= retriesBefore
	if err := d.gate("after traced phase"); err != nil {
		return nil, err
	}
	res.Attempted += int(d.trickleSent.Load())
	res.Failed += int(d.trickleFailed.Load()) + pr.failed
	requestSpans(spans, traced)
	d.stop()

	delta := func(name string) float64 { return after[name] - before[name] }
	perOp := func(v float64) float64 { return v / float64(traced.completed) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nodes := float64(w.nodes())
	cycles := delta("canopus_core_cycles_committed_total") / nodes // every node commits every cycle
	opsPerCycle := ratio(delta("canopus_client_requests_total"), cycles)

	edgeP50, edgeP99 := usSummary(pr.edgeUs)
	subP50, subP99 := usSummary(pr.submitUs)
	var calls []int32
	for _, sl := range traced.slices {
		for _, ph := range sl.runs {
			calls = append(calls, ph.callNs...)
		}
	}
	slices.Sort(calls)

	single, err := singleNode(seed, seconds, dir, spans)
	if err != nil {
		return nil, err
	}

	res.layer("client.edge_rtt_p50_ms", edgeP50, "ms", len(pr.edgeUs))
	res.layer("client.edge_rtt_p99_ms", edgeP99, "ms", len(pr.edgeUs))
	res.layer("client.call_ns", float64(percentile(calls, 0.5)), "ns", len(calls))
	res.layer("client.retries", float64(retries), "count", 0)

	res.layer("livecluster.submit_commit_p50_ms", subP50, "ms", len(pr.submitUs))
	res.layer("livecluster.submit_commit_p99_ms", subP99, "ms", len(pr.submitUs))
	res.layer("livecluster.inflight_max", g.inflight, "count", 0)
	res.layer("livecluster.requests", delta("canopus_client_requests_total"), "count", 0)
	res.layer("livecluster.replies_dropped", delta("canopus_client_replies_dropped_total"), "count", 0)

	readP50 := traced.read.p50
	res.layer("core.order_wait_p50_ms", readP50-edgeP50, "ms", traced.read.n)
	res.layer("core.cycles_per_s", cycles/dur.Seconds(), "1/s", 0)
	res.layer("core.ops_per_cycle", opsPerCycle, "count", 0)
	res.layer("core.fetch_retries", delta("canopus_core_fetch_retries_total"), "count", 0)
	res.layer("core.apply_lag_cycles_max", g.applyLag, "count", 0)
	res.layer("core.apply_queue_depth_max", g.applyQ, "count", 0)
	res.layer("core.stalls", delta("canopus_core_stalls_total"), "count", 0)
	res.layer("core.single_node_write_p50_ms", single, "ms", 0)

	res.layer("broadcast.replication_p50_ms", subP50-single, "ms", 0)

	res.layer("transport.writes_per_op", perOp(delta("canopus_transport_writes_total")), "count", 0)
	res.layer("transport.bytes_per_op", perOp(delta("canopus_transport_sent_bytes_total")), "B", 0)
	res.layer("transport.bytes_per_write", ratio(delta("canopus_transport_sent_bytes_total"), delta("canopus_transport_writes_total")), "B", 0)
	res.layer("transport.dropped_buffers", delta("canopus_transport_dropped_buffers_total"), "count", 0)

	res.layer("wal.fsyncs_per_op", perOp(delta("canopus_wal_fsyncs_total")), "count", 0)
	res.layer("wal.records_per_fsync", ratio(delta("canopus_wal_synced_records_total"), delta("canopus_wal_fsyncs_total")), "count", 0)
	var fsBytes float64
	var fsWriteUs, fsSyncP50, fsSyncP99 float64
	var fsSyncs int
	if clock != nil {
		clock.mu.Lock()
		fsBytes = float64(clock.bytes)
		slices.Sort(clock.writes)
		fsWriteUs = float64(percentile(clock.writes, 0.5))
		fsSyncP50, fsSyncP99 = usSummary(clock.syncs)
		fsSyncs = len(clock.syncs)
		clock.mu.Unlock()
	}
	res.layer("wal.bytes_per_op", perOp(fsBytes), "B", 0)
	res.layer("wal.fs_write_us", fsWriteUs, "us", 0)
	res.layer("wal.fs_sync_p50_ms", fsSyncP50, "ms", fsSyncs)
	res.layer("wal.fs_sync_p99_ms", fsSyncP99, "ms", fsSyncs)

	res.layer("chaosnet.injected_oneway_ms", float64(w.wanOneWay)/float64(time.Millisecond), "ms", 0)

	res.layer("gen.late_p99_us", traced.late.p99*1000, "us", traced.late.n)
	res.layer("gen.sent_frac", traced.sentFrac(), "ratio", 0)
	res.layer("trace.overhead_frac", traced.cpuPerReq/plain.cpuPerReq-1, "ratio", 0)

	ops := int(opsPerCycle + 0.5)
	if ops < 1 {
		ops = 1
	}
	rp := &replay{w: w, ops: mergedOps(traced), opsPerCycle: ops, spans: spans, res: res}
	if err := rp.run(); err != nil {
		return nil, err
	}

	res.info("traced.read_p50_ms", readP50, "ms", traced.read.n)
	res.info("traced.write_p50_ms", traced.write.p50, "ms", traced.write.n)
	res.info("probe.failed", float64(pr.failed), "count", 0)
	path := filepath.Join(dir, "trace-"+w.name+".jsonl")
	if err := spans.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// requestSpans turns one request in spanSampleEvery of a traced phase
// into spans: request (due to reply) with its children gen.late (due to
// hand-over to the client) and client.call (inside AsyncOk).
func requestSpans(l *spanLog, p *phaseResult) {
	for _, sl := range p.slices {
		for _, ph := range sl.runs {
			base := int64(ph.base.Sub(l.origin))
			for i := 0; i < len(ph.sched); i += spanSampleEvery {
				if ph.lat[i] < 0 {
					continue
				}
				due := base + ph.sched[i].dueNs
				sent := due + int64(ph.late[i])*1000
				id := l.addNs("request", due, due+int64(ph.lat[i])*1000, 0)
				l.addNs("gen.late", due, sent, id)
				l.addNs("client.call", sent, sent+int64(ph.callNs[i]), id)
			}
		}
	}
}

// singleNode is the no-replication floor: a one-node cluster under
// mixed_3n's mid rate, with Cluster.Submit write probes. It returns
// their p50 in ms.
func singleNode(seed int64, seconds float64, dir string, spans *spanLog) (float64, error) {
	mixed := findWorkload("mixed_3n")
	w := *mixed
	w.name, w.superLeaves = "single_node", [][]wire.NodeID{{0}}
	d, err := setup(&w, seed, dir, nil)
	if err != nil {
		return 0, fmt.Errorf("single-node baseline: %w", err)
	}
	defer d.close()
	r := newRunner(d)
	rate, dur := w.rates[1], phaseDur(seconds, singleShare)
	if _, err := r.open("warm", rate, phaseDur(seconds, warmShare), 1, nil, nil); err != nil {
		return 0, err
	}
	pr := &probes{d: d, spans: spans, name: "core.single_node", rate: probeRate(rate)}
	p, err := r.open("single", rate, dur, 1, nil, pr.run)
	if err != nil {
		return 0, err
	}
	if n := p.failed + p.unanswered + pr.failed; n != 0 {
		return 0, fmt.Errorf("single-node baseline: %d requests failed", n)
	}
	p50, _ := usSummary(pr.submitUs)
	return p50, nil
}
