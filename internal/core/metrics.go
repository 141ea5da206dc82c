package core

import (
	"sync/atomic"

	"canopus/internal/broadcast"
	"canopus/internal/metrics"
)

// startCause says which trigger started a cycle (docs/ARCHITECTURE.md
// step 4, "When a cycle starts").
type startCause uint8

const (
	// causeRequest: a client request found the node idle and past the pace.
	causeRequest startCause = iota
	// causeCommit: a commit left the node idle with requests pending, past
	// the pace (§4.2 self-clocking).
	causeCommit
	// causePace: the one-shot pace timer paid a start the pace had refused.
	causePace
	// causeFull: an idle node's pending batch was back to its previous
	// size (and at least fullBatch) before the pace had passed.
	causeFull
	// causeTickIdle: the cycle timer found the node idle with requests
	// pending (the safety net behind the two above).
	causeTickIdle
	// causeTickPipeline: the cycle timer overlapped a cycle with slow ones
	// in flight (§7.1).
	causeTickPipeline
	// causePeer: a peer's proposal, state, request or seal named a cycle
	// this node had not started (§4.4).
	causePeer
	// causeOverflow: MaxBatch requests were pending (§7.1, third trigger).
	causeOverflow
	// causeOther: a join sponsorship, a failure cut's Leave, or a start
	// that apply backpressure had held back.
	causeOther
	numStartCauses
)

var startCauseNames = [numStartCauses]string{
	"request", "commit", "pace", "full", "tick_idle", "tick_pipeline", "peer", "overflow", "other",
}

func (c startCause) String() string { return startCauseNames[c] }

// nodeStats are the node's always-on operational counters: atomic
// increments at protocol events, cheap enough to maintain unconditionally
// (simulations included), readable from any goroutine. RegisterMetrics
// exports them; nothing on the hot path ever looks an instrument up by
// name or allocates for one.
type nodeStats struct {
	// cycleStarts counts startCycle calls; with cycleCommits and the
	// run's wall time it gives the cycle rate.
	cycleStarts  atomic.Uint64
	cycleCommits atomic.Uint64
	// startsByCause splits cycleStarts by the trigger that started the
	// cycle.
	startsByCause [numStartCauses]atomic.Uint64
	// statePushes counts vnode states this node pushed to another
	// super-leaf's representative (one per state, consuming leaf and
	// cycle across the whole deployment on a healthy run).
	statePushes atomic.Uint64
	// fetchRetries counts pulls sent because a deadline expired — the
	// pushed state, or the answer to the previous pull, did not arrive in
	// time (§4.6's emulator rotation). It is the live signal that a
	// remote super-leaf is slow or partitioned, and 0 on a healthy run.
	fetchRetries atomic.Uint64
	// stalls counts transitions into the §6 stalled state.
	stalls atomic.Uint64
	// stallsDetected counts the liveness detector's trips (no commit
	// progress for 4 × FetchTimeout, checkStall); it can exceed 1 — the
	// flag clears when commits resume.
	stallsDetected atomic.Uint64
	// replayed counts cycles re-committed from the WAL during recovery.
	replayed atomic.Uint64
	// txnCommits/txnAborts count evaluated transactions by verdict
	// (duplicates resolve from cache and count nothing).
	txnCommits atomic.Uint64
	txnAborts  atomic.Uint64
	// leafEvictions counts eviction rounds this node resolved with a
	// tombstone (leaf.go); leafReadmissions counts evicted leaves
	// re-admitted by a member's rejoin.
	leafEvictions    atomic.Uint64
	leafReadmissions atomic.Uint64
	// evictedSelf counts Evicted notices acted on (0 or 1 per process
	// life: the node halts until restarted through the join protocol).
	evictedSelf atomic.Uint64
	// leavesDead mirrors len(n.leafDeadAt) — super-leaves currently
	// excluded from the merge.
	leavesDead atomic.Int64
	// bcast counts the messages this node's leaf broadcast sends, by kind.
	bcast broadcast.Stats
}

// RegisterMetrics exports the node's operational instruments into reg
// under the canopus_core_* names, each carrying the given constant
// labels. All instruments are sampled views over state the node already
// maintains (atomic watermarks and counters), so registration adds
// nothing to any hot path. Safe to call with a nil registry.
func (n *Node) RegisterMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	reg.CounterFunc("canopus_core_cycles_started_total",
		"Consensus cycles this node has started.",
		n.stats.cycleStarts.Load, labels...)
	for c := range n.stats.startsByCause {
		reg.CounterFunc("canopus_core_cycle_starts_by_cause_total",
			"Consensus cycles this node has started, by the trigger that started them.",
			n.stats.startsByCause[c].Load, withLabel(labels, "cause", startCauseNames[c])...)
	}
	reg.CounterFunc("canopus_core_cycles_committed_total",
		"Consensus cycles whose total order this node has resolved.",
		n.stats.cycleCommits.Load, labels...)
	reg.GaugeFunc("canopus_core_cycle_ordered",
		"Ordered watermark: highest cycle with a resolved total order.",
		func() float64 { return float64(n.Ordered()) }, labels...)
	reg.GaugeFunc("canopus_core_cycle_applied",
		"Applied watermark: highest cycle visible in committed state.",
		func() float64 { return float64(n.Committed()) }, labels...)
	reg.GaugeFunc("canopus_core_apply_lag_cycles",
		"Commit-pipeline depth: ordered watermark minus applied watermark.",
		func() float64 { return float64(n.Ordered() - n.Committed()) }, labels...)
	reg.GaugeFunc("canopus_core_apply_queue_depth",
		"Apply-stage commands accepted but not yet picked up.",
		func() float64 { return float64(n.stage.depth()) }, labels...)
	if t := n.Sessions(); t != nil {
		reg.GaugeFunc("canopus_core_sessions_active",
			"Replicated client sessions in the dedup table.",
			func() float64 { return float64(t.Occupancy()) }, labels...)
	}
	reg.CounterFunc("canopus_core_state_pushes_total",
		"Vnode states pushed to another super-leaf's representative.",
		n.stats.statePushes.Load, labels...)
	reg.CounterFunc("canopus_core_fetch_retries_total",
		"Vnode states pulled because they did not arrive before the fetch timeout (§4.6 emulator rotation).",
		n.stats.fetchRetries.Load, labels...)
	reg.CounterFunc("canopus_core_stalls_total",
		"Transitions into the stalled state (§6).",
		n.stats.stalls.Load, labels...)
	reg.GaugeFunc("canopus_core_stalled",
		"1 while the node is hard-halted (§6 stall/eviction) or the stall detector sees no commit progress for 4 × FetchTimeout.",
		func() float64 {
			if n.StallSuspected() {
				return 1
			}
			return 0
		}, labels...)
	reg.CounterFunc("canopus_core_stall_detected_total",
		"Stall-detector trips: no commit progress for 4 × FetchTimeout (clears on resumed commits; counts each trip).",
		n.stats.stallsDetected.Load, labels...)
	reg.CounterFunc("canopus_core_replayed_cycles_total",
		"Cycles re-committed from the WAL during crash recovery.",
		n.stats.replayed.Load, labels...)
	reg.CounterFunc("canopus_core_txn_commits_total",
		"Transactions whose guards all held (applied atomically).",
		n.stats.txnCommits.Load, labels...)
	reg.CounterFunc("canopus_core_txn_aborts_total",
		"Transactions aborted by a failing guard (nothing applied).",
		n.stats.txnAborts.Load, labels...)
	reg.CounterFunc("canopus_core_leaf_evictions_total",
		"Super-leaf eviction rounds this node resolved with a tombstone.",
		n.stats.leafEvictions.Load, labels...)
	reg.CounterFunc("canopus_core_leaf_readmissions_total",
		"Evicted super-leaves re-admitted by a member's rejoin.",
		n.stats.leafReadmissions.Load, labels...)
	reg.CounterFunc("canopus_core_evicted_self_total",
		"Times this node learned the committed view dropped it (an Evicted notice or its leaf's cut of it) and halted until re-join.",
		n.stats.evictedSelf.Load, labels...)
	// The intra-leaf broadcast's messages by kind: with
	// canopus_transport_writes_total they attribute a cycle's socket
	// writes to the forwards, appends, acknowledgements, heartbeats and
	// epoch changes behind them.
	for _, k := range []struct {
		kind string
		load func() uint64
	}{
		{"forward", n.stats.bcast.Forwards.Load},
		{"append", n.stats.bcast.Appends.Load},
		{"ack", n.stats.bcast.Acks.Load},
		{"heartbeat", n.stats.bcast.Heartbeats.Load},
		{"epoch", n.stats.bcast.Epochs.Load},
	} {
		reg.CounterFunc("canopus_broadcast_messages_total",
			"Messages sent by this node's leaf broadcast: forwards of its own broadcasts, the sequencer's appends with entries, acknowledgements, idle heartbeats and epoch changes.",
			k.load, withLabel(labels, "kind", k.kind)...)
	}
	reg.GaugeFunc("canopus_core_leaves_dead",
		"Super-leaves currently evicted from the merge in this node's view.",
		func() float64 { return float64(n.stats.leavesDead.Load()) }, labels...)
}

// withLabel returns labels plus one more, in a slice of its own.
func withLabel(labels []metrics.Label, key, value string) []metrics.Label {
	return append(append([]metrics.Label{}, labels...), metrics.Label{Key: key, Value: value})
}
