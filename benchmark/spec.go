package main

// The tables below are the benchmark's contract: BENCHMARK.json at the
// root of the repository lists exactly these workloads and metrics (a
// test compares the two), the last line of a run's output carries exactly
// these metrics, and -compare takes its bounds from BENCHMARK.json.

// gatedMetric is an end-to-end metric every workload reports and a later
// change may not worsen by more than bound (a share of the parent's
// median). Every bound is the widest the contract allows, 25%: on the
// reference box the host itself has slow spells of some minutes in which
// CPU time per request rises by a quarter and median latency by a tenth,
// so a tighter gate would trip on the weather. The end-to-end metrics
// that are not in this table (see run.go) are the ones that did not
// repeat to within 25% over ten runs.
type gatedMetric struct {
	name, unit, better string
	bound              float64
	what               string
}

var endToEnd = []gatedMetric{
	{"setup_s", "s", "lower", 0.25, "boot, dial, register a session per connection, preload 65 536 keys, wait for equal StateDigest on every replica; median of the run's 3 set-ups"},
	{"write_p50_ms", "ms", "lower", 0.25, "client Put at the mid ladder rate, due time to committed reply: trimmed mean over the phase's 16 slices of the slice's median"},
	{"read_p50_ms", "ms", "lower", 0.25, "linearizable client Get at the mid ladder rate, due time to reply: trimmed mean over slices of the slice's median"},
	{"max_rate_ok_req_s", "req/s", "higher", 0.25, "highest ladder rate with p99 within the workload's limit, no failure and no growing backlog; the steps are a factor 2 apart, so any drop exceeds the bound"},
	{"sat_throughput_req_s", "req/s", "higher", 0.25, "completed requests per second in the closed loop with 64 outstanding per connection, trimmed mean over slices"},
	{"allocs_per_req", "count", "lower", 0.25, "heap objects allocated over the mid phase per completed request, trimmed mean over slices"},
	{"rss_peak_mb", "MB", "lower", 0.25, "peak resident set of the run's process (ru_maxrss)"},
}

// layerMetric is a per-layer metric of the traced run. It has no bound.
type layerMetric struct{ name, unit, better string }

var perLayer = []layerMetric{
	{"client.edge_rtt_p50_ms", "ms", "lower"},
	{"client.edge_rtt_p99_ms", "ms", "lower"},
	{"client.call_ns", "ns", "lower"},
	{"client.retries", "count", "lower"},
	{"livecluster.submit_commit_p50_ms", "ms", "lower"},
	{"livecluster.submit_commit_p99_ms", "ms", "lower"},
	{"livecluster.inflight_max", "count", "lower"},
	{"livecluster.requests", "count", "lower"},
	{"livecluster.replies_dropped", "count", "lower"},
	{"core.order_wait_p50_ms", "ms", "lower"},
	{"core.cycles_per_s", "1/s", "lower"},
	{"core.ops_per_cycle", "count", "higher"},
	{"core.fetch_retries", "count", "lower"},
	{"core.apply_lag_cycles_max", "count", "lower"},
	{"core.apply_queue_depth_max", "count", "lower"},
	{"core.stalls", "count", "lower"},
	{"core.single_node_write_p50_ms", "ms", "lower"},
	{"broadcast.replication_p50_ms", "ms", "lower"},
	{"lot.reps_lookup_ns", "ns", "lower"},
	{"transport.writes_per_op", "count", "lower"},
	{"transport.bytes_per_op", "B", "lower"},
	{"transport.bytes_per_write", "B", "higher"},
	{"transport.dropped_buffers", "count", "lower"},
	{"transport.send_ns_per_msg", "ns", "lower"},
	{"transport.loopback_mb_s", "MB/s", "higher"},
	{"wire.req_encode_ns", "ns", "lower"},
	{"wire.req_decode_ns", "ns", "lower"},
	{"wire.resp_encode_ns", "ns", "lower"},
	{"wire.resp_decode_ns", "ns", "lower"},
	{"wire.proposal_encode_ns_per_op", "ns", "lower"},
	{"wire.proposal_decode_ns_per_op", "ns", "lower"},
	{"wire.allocs_per_op", "count", "lower"},
	{"kvstore.apply_ns", "ns", "lower"},
	{"kvstore.read_ns", "ns", "lower"},
	{"kvstore.session_begin_ns", "ns", "lower"},
	{"kvstore.digest_ms", "ms", "lower"},
	{"kvstore.snapshot_ms", "ms", "lower"},
	{"wal.fsyncs_per_op", "count", "lower"},
	{"wal.records_per_fsync", "count", "higher"},
	{"wal.bytes_per_op", "B", "lower"},
	{"wal.fs_write_us", "us", "lower"},
	{"wal.fs_sync_p50_ms", "ms", "lower"},
	{"wal.fs_sync_p99_ms", "ms", "lower"},
	{"wal.append_us_per_cycle", "us", "lower"},
	{"wal.recover_ms", "ms", "lower"},
	{"events.publish_ns_per_event.w0", "ns", "lower"},
	{"events.publish_ns_per_event.w64", "ns", "lower"},
	{"chaosnet.injected_oneway_ms", "ms", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"gen.sent_frac", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// driverNames are the metrics the last output line of a traced
// (per-layer) or untraced (end-to-end) run carries.
func driverNames(traced bool) map[string]bool {
	names := map[string]bool{}
	if traced {
		for _, m := range perLayer {
			names[m.name] = true
		}
	} else {
		for _, m := range endToEnd {
			names[m.name] = true
		}
	}
	return names
}
