#!/usr/bin/env bash
# stays-deleted.sh: code this repository deleted on purpose stays deleted.
#
# Each row names one design rule ("One ...") and the words of what that
# rule replaced. A row fails when its grep finds a line, after its
# filter drops the lines it allows; the script prints the lines, names
# every failing row and exits 1. Run it from the repository root:
#
#	.github/stays-deleted.sh

cd "$(dirname "$0")/.." || exit 2
failed=0

# row NAME FILTER GREP-ARGS...: run grep GREP-ARGS; the lines it prints
# that the extended regex FILTER ("-" for none) does not match fail NAME.
row() {
	local name=$1 filter=$2 out
	shift 2
	out=$(grep "$@")
	if [ "$filter" != - ] && [ -n "$out" ]; then
		out=$(grep -vE "$filter" <<<"$out")
	fi
	if [ -n "$out" ]; then
		echo "$out"
		echo "::error::stays deleted: $name"
		failed=1
	fi
}

# The client port serves v3 only. Nothing may bring back the text mode,
# binary v1, the v2 preamble or the DIGEST verb's hook.
row 'One client protocol: a retired client dialect is back' - \
	-rn 'modeText\|modeV1\|modeV2\|handleText\|handleBinary\|handleV2\|ClientMagic\b\|ClientMagicV2\|SetDigestFunc' --include=*.go .

# A cycle reaches the store through the apply stage only; which driver
# drains it follows from the runner, not from a knob.
row 'One commit path: a second commit path or one of its knobs is back' - \
	-rn 'ApplyWorkers\|ResolveApplyWorkers\|ShardedMachine\|ParallelApply\|StoreShards\|fanoutThreshold\|apply-workers' --include=*.go .

# A node's output is its committed stream, handed to the consumers fixed
# at NewNode; nothing may bring back a hook, a setter or a hub floor
# beside it. (zab and epaxos keep their own OnReply/OnCommit.)
row 'One committed stream: a committed-stream hook beside the Consumer list is back' - \
	-rn 'SetOnReply\|SetOnReplyBatch\|SetOnCommit\|SetOnEvents\|SetOnSessionReject\|OnReplyBatch\|OnStall\|OnSessionReject\|Floor:' --include=*.go .

# A simulator chaos op goes canopus/client's machine -> simulated link ->
# the client port's rules -> core.Node. Nothing may bring back a
# harness-only client or hand a request to a node directly.
row 'One client: a second client is back in the simulator' '_test\.go:' \
	-rn 'chaosClient' --include=*.go .
row 'One client: a direct Submit is back in the simulator' '^[^:]*_test\.go:' \
	-n '\.Submit(' internal/harness/*.go

# End-to-end numbers come from benchmark/ only; BENCH_baseline.json holds
# deterministic rows only. Nothing may bring back the send-timed live
# driver, its harness entry point, options, JSON baseline, benchdiff mode
# or the two wall-clock baseline rows.
row 'One measurement stack: a second live measurement stack is back' - \
	-rnE 'RunLive|LiveConfig|LiveResult|ClientDoer|NodeConn|harness\.Live\b|WithKeyDist|WithJSONOut|WithDataDir|WithRegistry|compareLive|BENCH_live|BenchmarkClientRoundTrip|BenchmarkCommitApply' --include=*.go .

# A linearizable read rides a cycle; Sequential and Stale are the local
# reads. Nothing may bring back the write-lease option, its lease table,
# held writes, deferred reads, the cycle-0 fast-path Commit or the
# proposal's lease section (now a reserved word).
row 'One read path: the §7.2 lease machinery is back' - \
	-rnE 'WriteLeases|LeaseTTL|LeaseRequest|submitLeased|leaseActive|leases_active|fastRead|deferredReads|heldWrites|\.Leases\b' --include=*.go .

# canopus-server and livecluster boot a replica through one
# livecluster.Boot; the admin gateway has no fault verb and the chaosnet
# fabric is a Go API only. Nothing may bring back the text grammar, its
# per-fabric setters, the 409 error, the exported wiring helpers or the
# second way to give a node a disk. (\b after Apply: ApplyDelayMatrix is
# the fabric's and stays.)
row 'One live node: the in-process fault grammar or a second node wiring is back' - \
	-rnE 'AdminChaos|ErrChaosUnavailable|chaosVerb|latencyClasses|SetAllLatency|SetAllDrop|chaosnet\.[A-Za-z]*\.Apply\b|\.Chaos\(\)\.Apply\b|Net\) Apply\(|livecluster\.(StatusSource|DigestSource|NewStore|NewClientPort)|DataDir:|Options\{Dir' --include=*.go .

# A node traces to the *slog.Logger it was built with (core.Callbacks.Log),
# and the apply stage delivers every plan of a batch after the batch's
# one Sync, durable or not. Nothing may bring back the process-wide hook,
# the env switch that set it or the list that forked delivery on
# durability.
row 'One trace seam: a process-wide trace hook or a second delivery path is back' - \
	-rnE 'DebugHook|CANOPUS_DEBUG|durPending' --include=*.go .

# The eviction and stall campaigns live in internal/harness
# (livechaos.go) and run on in-process clusters (TestLiveChaosCampaigns)
# and on canopus-server processes (cmd/chaos-smoke, which also holds the
# power cut). Nothing may bring back the second orchestrator, the
# canopus-bench experiment, or the livecluster copies of the storylines.
row 'One live chaos plane: a second copy of a live chaos storyline is back' - \
	-rnE 'durability-smoke|"live-chaos"|harness\.LiveChaos|chaosEvictionCfg|TestChaosLeafEvictionAndReadmission|TestChaosStallDetectionHealthz' --include=*.go .

# The committed view (lot.View) seats a joiner from a cycle every node
# computes (join commit + MaxInFlight) and holds every incarnation; a
# seated member leaves only through its leaf's agreed failure cut.
# Nothing may bring back the pipeline barrier, the cross-leaf join kind,
# the sponsor's local retire, the broadcaster's own incarnation count or
# the join-kind record.
row 'One membership owner: a second owner of leaf membership is back' - \
	-rnE 'stallAfter|Resurrect|onPeerFailedLocal|incarnationOf|sponsorship\{' --include=*.go --exclude=*_test.go .

# A live deployment is driven from outside through canopus/client only
# (recipes included), and a SimCluster through its event loop only (At,
# RunUntil, Submit). Nothing may bring back the callback interfaces, the
# recipes adapter over them, the port's socket-less session twins or the
# simulator's wall-clock pump, its queue and its session routing. (-w:
# client's startEventCluster test helper is not the interface.)
row 'One client surface: a second client surface is back' - \
	-rnwE 'SessionCluster|EventCluster|FromCluster|RegisterLocal|SubmitSessionLocal|queuedOp|simSessKey|SubmitRequest' --include=*.go .

# kvstore.Store is the one replicated state machine behind
# core.StateMachine, and a joiner installs the image a WAL snapshot
# holds. Nothing may bring back the sim-only znode tree, its CoordCluster
# facade, the optional second interface or the tree's write encoding.
# (harness.ZKCanopus, the Fig. 5 system, is not matched and stays.)
row 'One state machine: a second state machine is back' - \
	-rnwE 'CoordCluster|ZKServer|ZKTree|TxnMachine|EncodeWrite|DeleteIfValue' --include=*.go .
row 'One state machine: the znode tree package is imported again' - \
	-rn '"canopus/internal/zk"' --include=*.go .

# kvstore.Store holds the replicated client-session table and the apply
# stage is its only writer: registration, expiry (idle sessions at every
# stride cycle), classification and transaction verdicts happen as a
# cycle applies, and WAL snapshots, join replies and recovery read or
# install it with the shards. Nothing may bring back the WAL manager's
# shadow table, the turn's session GC and its proposed-expiry set, or a
# SessionTable held outside the store. (benchmark/ times a standalone
# table.)
row 'One session table: a writer of a second session table is back' - \
	-rnE 'applyShadow|gcSessions|expireProposed' --include=*.go .
row 'One session table: a second session table is back' '^\./(internal/kvstore/(kvstore|session)\.go|benchmark/)' \
	-rnE '^\s*[A-Za-z_]+\s+\*?(kvstore\.)?SessionTable\b|NewSessionTable\(' --include=*.go --exclude=*_test.go .

# Each super-leaf has one sequencer, which gives every member one
# delivery order (internal/broadcast, Sequencer). Nothing may bring back
# the small Raft, its message kinds, its per-member compaction hold or
# election deferral, or a group ID per origin.
row 'One broadcast per leaf: the small Raft is imported again' - \
	-rn '"canopus/internal/raftlite"' --include=*.go --exclude=*_test.go .
row 'One broadcast per leaf: a per-origin broadcast group is back' - \
	-rnE 'RaftAppend|RaftVote|HoldCompaction|DeferElection|groupID\(' --include=*.go --exclude=*_test.go .

# The leaf's one sequencer (internal/broadcast, Sequencer) is the only
# broadcast; the hardware-assisted flavour is the same sequencer over
# switch multicast (broadcast.Config.Multicast). Nothing may bring back
# the per-origin switch broadcaster, the interface that let it stand
# beside the sequencer, or its heartbeat and envelope messages, whose
# kind bytes stay reserved.
row 'One broadcast implementation: a second broadcast implementation is back' - \
	-rnE 'NewSwitch|wire\.Ping|wire\.Envelope|KindPing|KindBroadcast|type Broadcaster interface|type (Ping|Envelope) struct' --include=*.go --exclude=*_test.go .

# The EPaxos and Zab baselines run on the simulator only, which reads
# nothing of a message but WireSize: their messages live in
# internal/epaxos and internal/zab with a modeled size and no encoding,
# and their kind bytes (7-16) stay reserved. Nothing may bring their
# types or their codec back into the production codec.
row 'One codec: a baseline message or its codec is back in internal/wire' - \
	-rnE 'PreAccept|AcceptReply|type Accept struct|type Commit struct|InstanceRef|Zab(Forward|Propose|Ack|Commit|Inform)|OptBatch|readDeps' --include=*.go --exclude=*_test.go internal/wire/

# Every client op — a single-op frame, a batch slot, a transaction, a
# ClientPort.SubmitLocal call — enters the node through submitOp and is
# answered by finishLocked, which alone retires it from the in-flight
# count (internal/livecluster/route.go). Nothing may bring back the
# per-shape submit paths, their answer routines or the batch-only
# rejection.
row 'One op path in the client port: a per-shape op path is back' - \
	-rnwE 'completeEntry|completeBatchOp|submitBatch|submitTxn|trackedReadLocal|localRead|rejectBatch|sessionExpiredLocked|putSessPendingLocked|sessEntry' --include=*.go internal/livecluster/

# kvstore.Store is one map with one metadata map, one owner index and
# one apply-log chain: a snapshot holds one contents section (version 3)
# and a JoinReply one contents field. benchmark/ still calls NewSharded,
# SnapshotShards and RestoreShards, which
# internal/kvstore/bench_compat.go keeps as thin wrappers until ROADMAP
# 7(h) deletes that file.
row 'One store map: the store'"'"'s shard split is back' - \
	-rnE 'NewShardedLogged|NumShards|ShardOf|storeShards|SnapshotShards|RestoreShards|NewSharded\(|Shards \[\]' --include=*.go --exclude=*_test.go --exclude=bench_compat.go --exclude-dir=benchmark .

# A setting stays only if two non-test callers need different values, or
# it is a deployment setting. The stall detector is always on at 4 x
# FetchTimeout; POST /chaos, whose verb nothing turned on, is gone; the
# simulator's link parameters and the harness's, workload's and
# baselines' one-valued knobs are constants.
row 'Every option has a caller: a single-valued setting is back' - \
	-rnE 'StallThreshold|stall-threshold|admin-chaos|FaultVerbs|faultVerb|handleChaos|netsim\.Params|EvictRestartDelay|ThinkTime|MaxOps\b|ZabVoters|ZabBatch|SamplesPerWindow|LocalReadRTT' --include=*.go --exclude=*_test.go .

# A node the committed view dropped is refused with the Evicted notice,
# halts and rejoins in every configuration; every node runs root
# catch-up at stuckAfter; the chaos harness registers the eviction
# restart in every run.
row 'One way back for a dropped node: a gate on the way back is back' - \
	-rnE '\bn\.recovered\b|\.Recovered\(\)|LeafTimeout > 0 && n\.view|LeafTimeout > 0 && n\.env\.Now|if r\.spec\.Node\.LeafTimeout > 0' --include=*.go --exclude=*_test.go .

# livecluster.Replica answers its own node's eviction notice: a live
# host replaces the node in place with a state-less joiner, durable or
# not. Nothing may bring back the exit-and-restart flag, a caller's
# eviction hook or restart call, or the campaigns' eviction stream and
# rejoin verb.
row 'One eviction bounce: a second way to restart an evicted live node is back' - \
	-rnE 'exit-on-evict|exitOnEvict|RestartNode|Evicted\(\) <-chan|Rejoin\(i int\)' --include=*.go .

exit "$failed"
