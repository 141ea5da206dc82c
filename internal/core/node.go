package core

import (
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"canopus/internal/broadcast"
	"canopus/internal/engine"
	"canopus/internal/lot"
	"canopus/internal/wire"
)

// Timer tag kinds.
const (
	tagTick uint8 = iota + 1
	tagCycleTimer
	tagJoinRetry
	tagPace
)

// paceDivisor sets the pace of self-clocked starts as a share of
// CycleInterval: pace = CycleInterval / paceDivisor. A request waits half a
// pace on average for the next start, so p50 is about pace/2 + the rounds,
// and a loaded cluster runs 1/pace cycles a second, each costing its fixed
// b heap objects (allocs_per_req = a + b·cycles/requests). At 2 — pace 1 ms
// on the 2 ms loopback interval — that is 0.5 ms of waiting and at most
// 1000 cycles/s; a full interval (1) waits twice as long. On write_9n's
// 3 × 3 shape b is 67 objects a cycle (BenchmarkCycleFixedCost; 137 before
// the broadcast's messages and decoded requests came out of chunks), so
// 1000 cycles/s at its 4k req/s mid rate cost about 17 objects a request.
// A quarter would double the cycles, and that share with them: b must
// fall further first. The pace bounds only open-loop starts: a closed loop
// whose requests come back in a full batch starts without it (fullBatch).
const paceDivisor = 2

// fullBatch is the floor of the batch that lets an idle node start before
// the pace has passed: its pending client requests must reach
// max(fullBatch, lastBatch). A node-cycle's fixed cost is 4.5 (1 × 3) to
// 7.4 (3 × 3) heap objects and 4–7 messages (BenchmarkCycleFixedCost), so a
// cycle started early costs at most 7.4/32 ≈ 0.23 objects a request, and
// an open-loop load that gathers fewer than 32 a pace keeps the pace. The
// lastBatch half keeps a closed loop's batches from shrinking: each early
// start carries at least what the previous cycle did.
const fullBatch = 32

// ownSet is a node's full request set for one cycle: reads and writes in
// client arrival order. Only the writes travel in proposals; the set is
// kept locally so reads can be linearized at their arrival positions when
// the ordering cycle commits (§5).
type ownSet struct {
	reqs     []wire.Request
	arrivals []time.Duration
	writes   int
}

// cycle is the per-cycle protocol state at one node.
type cycle struct {
	id        uint64
	started   bool
	cause     startCause // the trigger that started it
	round     int        // 1..h while running; h+1 once the root state is known
	startedAt time.Duration

	// r1 collects round-1 proposals per super-leaf origin.
	r1 map[wire.NodeID]*wire.Proposal
	// own is the round-1 proposal this node broadcast: root catch-up
	// (recovery.go) abandons it and requeues what it carried.
	own *wire.Proposal
	// states[h] is the height-h vnode state, computed at the end of
	// round h; index 0 is unused.
	states []*wire.Proposal
	// child holds pushed, pulled or peer-rebroadcast vnode states by
	// vnode ID.
	child map[string]*wire.Proposal
	// fetchAttempt counts the pulls this node sent per vnode.
	fetchAttempt map[string]int
	// fetchDeadline is, per vnode this node is responsible for, when it
	// stops waiting for the state to arrive and pulls (again).
	fetchDeadline map[string]time.Duration
	// rebroadcast marks vnode states this node has already re-broadcast
	// to its peers, so a second copy (push and pull, two pulls) is not
	// re-proposed.
	rebroadcast map[string]bool
	// waiting buffers proposal-requests that arrived before the
	// requested state was computed (§4.2: "it buffers the request
	// message and replies ... only after computing the state").
	waiting []pendingReq
	// props is the merges' sort buffer (finishRound1, mergeRound), empty
	// between them.
	props []*wire.Proposal

	// sealed marks vnode IDs this leaf has sealed for this cycle during
	// an eviction round (see leaf.go): plain states for a sealed vnode
	// are refused; only a Resolve-flagged proposal fills the slot.
	sealed map[string]bool
	// evict tracks eviction rounds this node initiated, per missing
	// vnode.
	evict map[string]*evictState

	complete bool
}

type pendingReq struct {
	from  wire.NodeID
	vnode string
}

// Node is one Canopus participant (a pnode).
type Node struct {
	cfg  Config
	env  engine.Env
	tree *lot.Tree
	view *lot.View
	sl   int
	bc   *broadcast.Sequencer
	sm   StateMachine
	cbs  Callbacks
	// log is Callbacks.Log bound to this node and its leaf (see trace).
	log *slog.Logger

	closedPeers map[wire.NodeID]bool
	// repsBuf backs effectiveReps' result.
	repsBuf []wire.NodeID

	// Request accumulation for the next cycle to start.
	accum ownSet
	// Fluid-mode accumulation (aggregate counts instead of requests).
	fluidRead, fluidWrite, fluidBytes uint32
	fluidSamples                      []wire.ArrivalSample

	// proposed maps a cycle to the request set it ordered.
	proposed map[uint64]*ownSet

	cycles    map[uint64]*cycle
	started   uint64
	committed uint64
	// cycleFree recycles committed cycle structs (and their maps) so a
	// saturated node does not allocate a fresh cycle skeleton per commit.
	cycleFree []*cycle
	// recent retains committed cycles' vnode states so late fetches from
	// lagging super-leaves can still be answered (a super-leaf can trail
	// the fastest one by up to the pipelining bound).
	recent map[uint64][]*wire.Proposal
	// statesFree recycles the states slices that left recent.
	statesFree [][]*wire.Proposal
	// recentChild retains committed cycles' fetched child states (the
	// cycle's child map, stolen at commit) so eviction queries for gap
	// cycles — cycles the dead leaf may already have served state for —
	// can be answered with the exact state this node merged. Only
	// maintained when LeafTimeout > 0; pruned with recent.
	recentChild map[uint64]map[string]*wire.Proposal
	// leafDeadAt records, per super-leaf ordinal, the commit cycle at
	// which the view last saw the leaf's membership go empty (an eviction
	// landing). Merges of cycles >= leafDeadAt+MaxInFlight substitute the
	// tombstone locally without a new eviction round. Deleted when a
	// member of the leaf rejoins.
	leafDeadAt map[int]uint64

	// Commit watermarks (see stage.go). orderedW mirrors n.committed for
	// lock-free observers; applied is the highest cycle the apply stage
	// has applied.
	orderedW atomic.Uint64
	applied  atomic.Uint64
	// stage is the apply stage: the only path from a committed cycle to
	// the state machine, the WAL, the event plane and the clients.
	stage *stage
	// owedStart is the cycle up to which starts are owed because canStart
	// refused them when they were asked for: for any cause when the apply
	// stage lagged (backpressure), and when a peer asked while MaxInFlight
	// cycles were in flight here. tick retries them. The trigger that
	// asked — a peer's round-1 delivery, a fetch — does not come again on
	// an idle node, and without the retry the super-leaf would wait for
	// this node's round 1 for ever.
	owedStart uint64

	// Replicated client sessions (see session.go): the table is the state
	// machine's, written by the apply stage; this is the node's local
	// proposal and notification bookkeeping.
	pendingSessions []wire.SessionUpdate
	regWaiters      map[uint64]func(id uint64, ok bool)
	expWaiters      map[uint64][]func(ok bool)

	pendingUpdates []wire.MemberUpdate
	// sponsoring holds the joins this node proposed, by joiner (join.go);
	// resending is set while the resendJoinReplies timer is armed.
	sponsoring map[wire.NodeID]sponsored
	resending  bool

	// stats are the always-on operational counters the admin gateway
	// exports (see metrics.go).
	stats nodeStats

	stalled bool
	// evicted latches when the node learns (via a wire.Evicted notice)
	// that the cluster removed its super-leaf: it behaves like stalled
	// but fires Callbacks.OnEvicted so the operator restarts it through
	// the join protocol.
	evicted bool
	// evictGraceUntil absorbs spurious Evicted notices right after a
	// join: a remote whose view has not yet committed this node's Join
	// still sees it dead and reflexively refuses its first fetches. Real
	// evictions re-notify on every refused message, so compliance is
	// only delayed by the grace, never lost.
	evictGraceUntil time.Duration
	rejoin          bool
	joinSeq         int
	joinNonce       uint64 // this joining process's JoinRequest.Nonce
	// recovered marks a node restarted from durable state (see
	// recovery.go): it enables the root catch-up path that closes the
	// watermark gap against peers after a full-cluster restart.
	recovered bool
	// durFailed latches after the first Durability error (fail-stop
	// logging); durErr holds that error for external observers. unsynced
	// is set while an appended record awaits its Sync. All three belong to
	// the apply stage.
	durFailed bool
	unsynced  bool
	durErr    atomic.Value
	lastTick  time.Duration
	// lastCycleStart is when this node last started a cycle, on any
	// trigger: the pace of self-clocked starts is measured from it.
	lastCycleStart time.Duration
	// lastCycleTook is the start-to-commit time of the last cycle this
	// node committed; with the age of the oldest cycle in flight it tells
	// the cycle timer whether cycles outlive the interval (cyclesAreSlow).
	lastCycleTook time.Duration
	// emptyCycles counts the cycles this node committed in a row that
	// ordered nothing — no request, session or membership update — so an
	// idle cluster stops pipelining (onCycleTimer).
	emptyCycles int
	// lastBatch is the number of client requests this node's last cycle
	// carried (startSelfClocked, fullBatch).
	lastBatch int
	// paceArmed is set while the one-shot pace timer is outstanding
	// (startSelfClocked arms it, Timer clears it).
	paceArmed bool
	// lastCommitAt is the machine time of the most recent commit: the
	// stall detector and the leaf-eviction clock measure silence from it,
	// so it is kept only while one of them is armed. stallDetected and halted are atomic mirrors for off-turn observers
	// (metrics, /healthz) — stallDetected tracks the no-commit-progress
	// detector (Config.StallThreshold), halted the hard §6 stall/eviction
	// states.
	lastCommitAt  time.Duration
	stallDetected atomic.Bool
	halted        atomic.Bool
	nextCycleAt   time.Duration // phase-anchored cycle timer target
}

// localRead is one deferred committed-state read (see Node.ReadLocal).
type localRead struct {
	key      uint64
	minCycle uint64
	fn       func(val []byte, cycle uint64, ok bool)
}

var _ engine.Machine = (*Node)(nil)

// NewNode builds a Canopus node. sm may be nil when running fluid
// workloads (no materialized requests).
func NewNode(cfg Config, sm StateMachine, cbs Callbacks) *Node {
	cfg.fill()
	if cfg.Tree == nil {
		panic("core: Config.Tree is required")
	}
	sl := cfg.Tree.SuperLeafOf(cfg.Self)
	if sl < 0 {
		panic(fmt.Sprintf("core: node %v not in tree", cfg.Self))
	}
	n := &Node{
		cfg:         cfg,
		tree:        cfg.Tree,
		sl:          sl,
		sm:          sm,
		cbs:         cbs,
		closedPeers: make(map[wire.NodeID]bool),
		proposed:    make(map[uint64]*ownSet),
		cycles:      make(map[uint64]*cycle),
		recent:      make(map[uint64][]*wire.Proposal),
		recentChild: make(map[uint64]map[string]*wire.Proposal),
		leafDeadAt:  make(map[int]uint64),
		sponsoring:  make(map[wire.NodeID]sponsored),
	}
	log := cbs.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	n.log = log.With(slog.Int("node", int(cfg.Self)), slog.Int("leaf", sl))
	n.stage = newStage(n)
	return n
}

// trace records one protocol event of cycle at Debug level. The level is
// checked before anything is built, so with tracing off a call costs a
// few nanoseconds and allocates nothing; callers pass typed attributes
// only, never a formatted string.
func (n *Node) trace(event string, cycle uint64, attrs ...slog.Attr) {
	ctx := context.Background()
	if !n.log.Enabled(ctx, slog.LevelDebug) {
		return
	}
	n.log.LogAttrs(ctx, slog.LevelDebug, event, append([]slog.Attr{slog.Uint64("cycle", cycle)}, attrs...)...)
}

// Close stops the node's apply stage: queued cycles finish applying, the
// durability batch is flushed, parked committed-state reads fail, and the
// stage's goroutine, if the node ran under a live runner, has exited when
// Close returns. A node must not be driven after Close.
func (n *Node) Close() { n.stage.close() }

// DrainApply blocks until every cycle ordered so far has finished
// applying (Committed() has caught up with Ordered()). Must NOT be called
// from a reply callback.
func (n *Node) DrainApply() { n.InspectApplied(func() {}) }

// InspectApplied runs fn on the apply stage: every cycle ordered before
// the call has applied, and no apply overlaps fn — fn may read the
// StateMachine coherently, which the stage owns and nothing else may
// touch while the node runs. It blocks until fn returns; must NOT be
// called from a reply callback (they run on the stage).
func (n *Node) InspectApplied(fn func()) { n.stage.call(fn) }

// NewJoiner builds a node that re-enters an existing deployment through
// the join protocol instead of assuming the initial configuration.
func NewJoiner(cfg Config, sm StateMachine, cbs Callbacks) *Node {
	n := NewNode(cfg, sm, cbs)
	n.rejoin = true
	return n
}

// Init implements engine.Machine.
func (n *Node) Init(env engine.Env) {
	n.env = env
	if sp, ok := env.(engine.Spawner); ok {
		// Real goroutines beside the machine's turns: the apply stage gets
		// its own, and the next cycles' consensus overlaps this one's fsync.
		n.stage.start(sp.Go)
	}
	if n.rejoin {
		// Defer all protocol state to the JoinReply.
		n.joinNonce = env.Rand().Uint64()
		n.sendJoinRequest()
		return
	}
	n.view = lot.NewView(n.tree)
	n.initBroadcast()
	env.After(n.cfg.TickInterval, engine.Tag(tagTick, 0))
	if n.cfg.CycleInterval > 0 {
		n.nextCycleAt = n.env.Now() + n.cfg.CycleInterval
		env.After(n.cfg.CycleInterval, engine.Tag(tagCycleTimer, 0))
	}
}

// initBroadcast builds the leaf's broadcast layer from the committed
// view: its seated members, each under the incarnation the view holds.
func (n *Node) initBroadcast() {
	members := n.view.Members(n.sl)
	incs := make(map[wire.NodeID]uint32, len(members))
	for _, id := range members {
		incs[id] = n.view.Incarnation(id)
	}
	bcfg := broadcast.Config{
		Members:      members,
		Seats:        len(n.tree.SuperLeaf(n.sl).Members),
		Incarnations: incs,
		TickInterval: n.cfg.TickInterval,
		// A joiner hears of its seat one sponsor-to-joiner delay after its
		// leaf-mates, which FetchTimeout bounds.
		SeatGrace: n.cfg.FetchTimeout,
		Multicast: n.cfg.Broadcast == BroadcastSwitch,
	}
	n.bc = broadcast.NewSequencer(n.env, bcfg, broadcast.Callbacks{
		Deliver:    n.onDeliver,
		PeerFailed: n.onPeerFailed,
		Stats:      &n.stats.bcast,
	})
	for _, s := range n.view.Pending() {
		n.expect(s.Node)
	}
}

// expect readies the broadcast layer for a pending seat in this leaf.
func (n *Node) expect(id wire.NodeID) {
	if n.tree.SuperLeafOf(id) == n.sl && id != n.cfg.Self {
		n.bc.Expect(id)
	}
}

// Recv implements engine.Machine.
func (n *Node) Recv(from wire.NodeID, m wire.Message) {
	switch v := m.(type) {
	case *wire.JoinRequest:
		n.onJoinRequest(v)
		return
	case *wire.JoinReply:
		n.onJoinReply(v)
		return
	case *wire.Evicted:
		// Must be handled before the stalled/rejoin drop: the notice is
		// exactly what tells a stalled survivor to restart fresh.
		n.onEvictedNotice(v)
		return
	}
	if n.rejoin || n.stalled {
		return // not participating; peers retry what matters
	}
	if n.cfg.LeafTimeout > 0 && n.view != nil && from != n.cfg.Self &&
		n.tree.SuperLeafOf(from) >= 0 && !n.view.Alive(from) {
		// Dead-in-view sender: an evicted leaf's member (possibly a healed
		// partition minority, or a durable restart of the old incarnation)
		// is still talking with pre-eviction state. Refusing it — and
		// telling it why — is what keeps the evicted state from leaking
		// back into consensus.
		n.env.Send(from, &wire.Evicted{From: n.cfg.Self})
		return
	}
	if n.bc != nil && n.bc.Handle(from, m) {
		return
	}
	switch v := m.(type) {
	case *wire.Proposal:
		n.onFetchResponse(v)
	case *wire.ProposalRequest:
		n.onProposalRequest(from, v)
	case *wire.EvictQuery:
		n.onEvictQuery(v)
	case *wire.EvictPromise:
		n.onEvictPromise(from, v)
	}
}

// Timer implements engine.Machine.
func (n *Node) Timer(tag engine.TimerTag) {
	switch engine.TagKind(tag) {
	case tagTick:
		n.tick()
		n.env.After(n.cfg.TickInterval, engine.Tag(tagTick, 0))
	case tagCycleTimer:
		n.onCycleTimer()
		// Phase-anchored rearm: scheduling relative to the target time
		// (not the handler's actual run time) keeps this node's period at
		// CycleInterval however late its handlers run; otherwise
		// CPU-queueing lag would stretch every period by the lag. It does
		// not put the nodes in step with each other: each keeps the phase
		// its boot (or a re-anchor after a lag of a whole interval, below)
		// left it, and that is wanted — a leaf that learned cycle k from a
		// peer starts k+1 at its own next tick, which is what keeps
		// wide-area leaves from trailing one another (ARCHITECTURE step 4,
		// "When a cycle starts").
		n.nextCycleAt += n.cfg.CycleInterval
		if now := n.env.Now(); n.nextCycleAt < now {
			n.nextCycleAt = now + n.cfg.CycleInterval
		}
		n.env.After(n.nextCycleAt-n.env.Now(), engine.Tag(tagCycleTimer, 0))
	case tagJoinRetry:
		switch {
		case n.stalled: // halted, or a joiner that refused its reply
		case n.rejoin:
			n.sendJoinRequest()
		default:
			n.resendJoinReplies()
		}
	case tagPace:
		if !n.paceArmed {
			return // armed before a join re-initialized the node
		}
		n.paceArmed = false
		if n.pendingCount() > 0 {
			n.startSelfClocked(causePace)
		}
	}
}

// tick drives the broadcast substrate and retries stuck fetches.
func (n *Node) tick() {
	if n.rejoin || n.stalled {
		return
	}
	n.lastTick = n.env.Now()
	n.checkStall()
	if n.owedStart > n.started {
		n.tryStartCycles(n.owedStart, causeOther)
	}
	n.bc.Tick()
	n.retryFetches()
	n.driveEvictions()
}

// checkStall is the Config.StallThreshold liveness detector: a node
// with started-but-uncommitted cycles and no commit progress past the
// threshold flags itself degraded. Pure observation — it sends nothing
// and arms nothing, so it costs one branch when disabled and never
// perturbs replay determinism.
func (n *Node) checkStall() {
	if n.cfg.StallThreshold <= 0 {
		return
	}
	if n.started <= n.committed {
		if n.stallDetected.Load() {
			n.stallDetected.Store(false)
		}
		return
	}
	// Progress reference: the later of the last commit and the start of
	// the oldest uncommitted cycle (so a node that just started its
	// first-ever cycle is not instantly "stalled").
	ref := n.lastCommitAt
	if c, ok := n.cycles[n.committed+1]; ok && c.started && c.startedAt > ref {
		ref = c.startedAt
	}
	if n.env.Now()-ref <= n.cfg.StallThreshold {
		return
	}
	if !n.stallDetected.Swap(true) {
		n.stats.stallsDetected.Add(1)
	}
}

// onCycleTimer is the §7.1 pipelining trigger: with cycles in flight that
// outlive the interval it starts the next one, which bounds the offset
// between consecutive starts by CycleInterval. Cycles shorter than the
// interval are not overlapped — the commit, paced, starts the next — so on
// a fast network the ticks of nodes without clients add no cycles. Nor
// are cycles overlapped once the cluster is idle: nothing is pending here
// and the last MaxInFlight cycles committed, a pipeline's depth, ordered
// nothing. Otherwise every tick of a wide-area cluster would start another
// empty cycle while the previous empty ones are still in flight, and it
// would never drain. One empty cycle is no sign of idleness: under a
// closed-loop load across a wide area, cycles between two bursts of
// replies carry nothing, and a leaf without clients that stopped at each
// would lose its leapfrog (see cyclesAreSlow). On an idle node with
// requests pending it is the safety net behind startSelfClocked for
// starts canStart refused (apply backpressure).
func (n *Node) onCycleTimer() {
	if n.rejoin || n.stalled {
		return
	}
	switch {
	case n.started > n.committed:
		if (n.pendingCount() > 0 || n.emptyCycles < n.cfg.MaxInFlight) && n.cyclesAreSlow() {
			n.tryStartCycles(n.started+1, causeTickPipeline)
		}
	case n.pendingCount() > 0:
		n.startSelfClocked(causeTickIdle)
	}
}

// cyclesAreSlow reports whether a cycle takes at least the interval here:
// the last one committed did, or the oldest in flight already has. It
// deliberately does not look at lastCycleStart: a leaf that started cycle
// k late, on hearing of it, must still start k+1 at its own next tick or
// it trails the others by that lateness for ever.
func (n *Node) cyclesAreSlow() bool {
	took := n.lastCycleTook
	if c, ok := n.cycles[n.committed+1]; ok && c.started {
		if age := n.env.Now() - c.startedAt; age > took {
			took = age
		}
	}
	return took >= n.cfg.CycleInterval
}

// pendingCount is the number of accumulated-but-unproposed requests.
// Pending session and membership updates count too: a registration or a
// Leave must get a cycle to ride even on an otherwise idle node. So do
// pending seats: a joiner is answered only when the cycle before its seat
// commits.
func (n *Node) pendingCount() int {
	return n.pendingRequests() + len(n.pendingSessions) + len(n.pendingUpdates) + len(n.view.Pending())
}

// pendingRequests is the number of client requests, explicit or fluid,
// the next cycle would carry.
func (n *Node) pendingRequests() int {
	return len(n.accum.reqs) + int(n.fluidRead) + int(n.fluidWrite)
}

// Submit hands the node one client request (explicit mode). It must be
// invoked from the node's own event context (the drivers arrange this).
func (n *Node) Submit(req wire.Request) {
	if n.stalled || n.rejoin {
		// The paper's stall semantics: requests are neither served nor
		// lost; clients time out and retry elsewhere. We drop.
		return
	}
	n.accum.reqs = append(n.accum.reqs, req)
	n.accum.arrivals = append(n.accum.arrivals, n.env.Now())
	if req.Op.Mutates() {
		n.accum.writes++
	}
	n.afterSubmit()
}

// ReadLocal answers a read from this replica's committed state without
// entering a consensus cycle — the Sequential/Stale client read path
// (every replica holds the full state, §5). If the node has committed at
// least minCycle the read is served immediately; otherwise it is
// deferred until that cycle commits (cycles are global, so a cycle
// observed committed anywhere commits here too, absent failures). fn
// runs in the node's event context with the value (nil when absent),
// the commit cycle whose state served the read, and ok=true — or
// ok=false if the read was abandoned by FailLocalReads (or Close) before
// minCycle applied. fn runs on the apply stage, with which every
// committed-state read serializes. Unlike Submit, ReadLocal also works on
// a stalled node when minCycle is already committed: serving stale state
// during a stall is exactly what the weaker levels are for.
func (n *Node) ReadLocal(key uint64, minCycle uint64, fn func(val []byte, cycle uint64, ok bool)) {
	if (n.stalled || n.rejoin) && minCycle > n.committed {
		// The awaited cycle cannot commit here (§6 stall semantics); fail
		// fast so the client retries another replica. A cycle that is
		// ordered here will apply here, so only targets beyond the ordered
		// watermark are unreachable.
		fn(nil, n.applied.Load(), false)
		return
	}
	n.stage.submit(stageCmd{kind: cmdRead, read: localRead{key: key, minCycle: minCycle, fn: fn}})
}

// FailLocalReads abandons every deferred committed-state read (their fn
// runs with ok=false): the serving process is shutting down or crashed,
// and the cycles those reads wait for will not commit here. It is ordered
// after every plan already with the stage: reads whose cycle is ordered
// still complete; only genuinely unreachable ones fail. Call from the
// node's event context.
func (n *Node) FailLocalReads() { n.stage.submit(stageCmd{kind: cmdFailReads}) }

// afterSubmit applies the self-synchronization (§4.4) and batch-overflow
// (§7.1) cycle-start triggers. Self-clocked starts are paced so
// saturation does not degenerate into a storm of tiny cycles; batch
// overflow overrides the pacing (§7.1's third trigger).
func (n *Node) afterSubmit() {
	if n.pendingCount() >= n.cfg.MaxBatch {
		n.tryStartCycles(n.started+1, causeOverflow)
		return
	}
	// Idle: a client request prompts a new consensus cycle.
	n.startSelfClocked(causeRequest)
}

// startSelfClocked is the one gate of the self-clocked triggers — a
// request, a commit or the cycle timer finding requests pending: an idle
// node starts the next cycle once the pace has passed since the last start
// of any cause (so the peers of a leaf, which all record the start a
// peer's proposal prompted, share one clock), and a start the pace refuses
// is owed by the one-shot pace timer instead of waiting for the next
// request or tick — unless the pending client requests are back to a full
// batch, max(fullBatch, lastBatch): then it starts at once (full).
func (n *Node) startSelfClocked(cause startCause) {
	if n.started != n.committed {
		return
	}
	if n.cfg.CycleInterval > 0 {
		pace := n.cfg.CycleInterval / paceDivisor
		if wait := n.lastCycleStart + pace - n.env.Now(); wait > 0 {
			if n.pendingRequests() >= max(fullBatch, n.lastBatch) {
				n.tryStartCycles(n.started+1, causeFull)
				return
			}
			if !n.paceArmed {
				n.paceArmed = true
				n.env.After(wait, engine.Tag(tagPace, 0))
			}
			return
		}
	}
	n.tryStartCycles(n.started+1, cause)
}

// SubmitFluid accumulates an aggregate of client requests (fluid mode):
// reads/writes counts, the modeled payload bytes of the writes, and a few
// arrival samples used for latency accounting at commit time.
func (n *Node) SubmitFluid(reads, writes, bytes uint32, samples []wire.ArrivalSample) {
	if n.stalled || n.rejoin {
		return
	}
	n.fluidRead += reads
	n.fluidWrite += writes
	n.fluidBytes += bytes
	n.fluidSamples = append(n.fluidSamples, samples...)
	n.afterSubmit()
}

// tryStartCycles starts cycles in sequence up to target, subject to the
// pipelining bound, apply backpressure and super-leaf health.
func (n *Node) tryStartCycles(target uint64, cause startCause) {
	for n.started+1 <= target && n.canStart(n.started+1) {
		n.startCycle(n.started+1, cause)
	}
	if n.started < target && target > n.owedStart && (cause == causePeer || n.owedStart == n.started+1) {
		// A peer is waiting for this node's round 1, or backpressure cut
		// the sequence short: owe all of it.
		n.owedStart = target
	}
}

func (n *Node) canStart(k uint64) bool {
	if n.stalled || n.rejoin {
		return false
	}
	if k != n.started+1 {
		return false // never skip a cycle (§7.1)
	}
	if int(n.started-n.committed) >= n.cfg.MaxInFlight {
		return false
	}
	if k > n.applied.Load()+uint64(2*n.cfg.MaxInFlight) {
		// Apply backpressure: ordering paces against the applied
		// watermark too, so a slow apply stage bounds its plan queue
		// instead of letting it (and the retained cycle state) grow
		// without limit. tick starts the cycle once the stage has caught
		// up. (A stage drained inline never lags.)
		n.owedStart = max(n.owedStart, k)
		return false
	}
	return true
}

// startCycle begins cycle k: snapshot the accumulated request set, build
// and reliably broadcast the round-1 proposal, and arm the deadlines of
// the remote states this node is responsible for. It sends no request:
// the emulators of those states push them as soon as they are computed
// (pushState), and started this cycle at the same timer tick or start it
// on receiving this leaf's push.
func (n *Node) startCycle(k uint64, cause startCause) {
	c := n.ensureCycle(k)
	n.started = k
	n.stats.cycleStarts.Add(1)
	n.stats.startsByCause[cause].Add(1)
	c.started = true
	c.cause = cause
	c.round = 1
	c.startedAt = n.env.Now()
	n.lastCycleStart = c.startedAt
	n.trace("start", k, slog.String("cause", cause.String()))

	// The proposal, its batch list and its batch are one heap object, the
	// writes a second: what a cycle costs the node that has requests.
	p, batch := wire.NewRoundOneProposal()
	p.Cycle, p.Round, p.Origin = k, 1, n.cfg.Self
	p.Num = n.env.Rand().Uint64()
	n.lastBatch = n.pendingRequests()
	n.proposed[k] = n.takeAccum(batch)
	if batch.Requests() > 0 {
		p.Batches = append(p.Batches, batch)
	}
	if len(n.pendingUpdates) > 0 {
		p.Updates = n.pendingUpdates
		n.pendingUpdates = nil
	}
	if len(n.pendingSessions) > 0 {
		p.Sessions = n.pendingSessions
		n.pendingSessions = nil
	}
	c.own = p
	n.bc.Broadcast(p)
	n.armFetches(c)
}

// takeAccum converts the accumulated requests into the proposal batch
// (writes only on the wire; reads stay local), filled in place — left
// zero, without requests, when nothing was accumulated — and the locally
// retained full set. Sets are pooled: the recycled backing arrays become
// the next accumulation window, so a saturated node reuses the same
// storage cycle after cycle.
func (n *Node) takeAccum(batch *wire.Batch) *ownSet {
	set := ownSetPool.Get().(*ownSet)
	switch {
	case len(n.accum.reqs) > 0:
		recycled := *set
		*set = n.accum
		n.accum = ownSet{reqs: recycled.reqs[:0], arrivals: recycled.arrivals[:0]}
		writes := make([]wire.Request, 0, set.writes)
		var nr, nw uint32
		for i := range set.reqs {
			if set.reqs[i].Op.Mutates() {
				writes = append(writes, set.reqs[i])
				nw++
			} else {
				nr++
			}
		}
		*batch = wire.Batch{
			Origin:   n.cfg.Self,
			Reqs:     writes,
			NumRead:  nr,
			NumWrite: nw,
		}
	case n.fluidRead > 0 || n.fluidWrite > 0:
		*batch = wire.Batch{
			Origin:   n.cfg.Self,
			NumRead:  n.fluidRead,
			NumWrite: n.fluidWrite,
			ByteSize: n.fluidBytes,
			Samples:  n.fluidSamples,
		}
		n.fluidRead, n.fluidWrite, n.fluidBytes = 0, 0, 0
		n.fluidSamples = nil
	}
	return set
}

// ensureCycle returns (creating or recycling as needed) cycle k's state.
// The per-cycle maps are created lazily at their write sites — a
// height-1 deployment never fetches, so child/fetchAttempt/fetchDeadline
// would be three dead allocations per cycle.
func (n *Node) ensureCycle(k uint64) *cycle {
	if c, ok := n.cycles[k]; ok {
		return c
	}
	var c *cycle
	if len(n.cycleFree) > 0 {
		c = n.cycleFree[len(n.cycleFree)-1]
		n.cycleFree = n.cycleFree[:len(n.cycleFree)-1]
		*c = cycle{
			r1:            c.r1,
			child:         c.child,
			fetchAttempt:  c.fetchAttempt,
			fetchDeadline: c.fetchDeadline,
			rebroadcast:   c.rebroadcast,
			sealed:        c.sealed,
			evict:         c.evict,
			waiting:       c.waiting[:0],
			props:         c.props,
		}
	} else {
		c = &cycle{}
	}
	c.id = k
	if last := len(n.statesFree) - 1; last >= 0 {
		c.states, n.statesFree = n.statesFree[last], n.statesFree[:last]
	} else {
		c.states = make([]*wire.Proposal, n.tree.Height+1)
	}
	n.cycles[k] = c
	return c
}

// freeCycle recycles a committed cycle's skeleton. Its states slice is
// NOT recycled here — n.recent retains it to answer late fetches, and
// hands it back when the retention window has passed (dropRecent).
func (n *Node) freeCycle(c *cycle) {
	if len(n.cycleFree) >= n.cfg.MaxInFlight+4 {
		return
	}
	clear(c.r1)
	clear(c.child)
	clear(c.fetchAttempt)
	clear(c.fetchDeadline)
	clear(c.rebroadcast)
	clear(c.sealed)
	clear(c.evict)
	c.states, c.own = nil, nil
	n.cycleFree = append(n.cycleFree, c)
}

func (n *Node) retention() uint64 { return n.cfg.retention() }

// Committed returns the highest cycle whose effects are visible in this
// replica's committed state — the applied watermark. It may trail the
// ordered watermark by the cycles the apply stage has queued. Safe from
// any goroutine.
func (n *Node) Committed() uint64 { return n.applied.Load() }

// Ordered returns the highest cycle whose total order this node has
// resolved (the protocol-internal commit watermark §7.1 paces against).
// Ordered() >= Committed(). Safe from any goroutine.
func (n *Node) Ordered() uint64 { return n.orderedW.Load() }

// Started returns the highest started cycle.
func (n *Node) Started() uint64 { return n.started }

// Stalled reports whether the node has halted (§6 stall semantics).
func (n *Node) Stalled() bool { return n.stalled }

// StallSuspected reports the liveness detector's verdict: true while
// the node has made no commit progress past Config.StallThreshold (the
// minority side of a partition), or has hard-halted (§6 stall or
// eviction). It clears automatically when commits resume. Safe from any
// goroutine, unlike Stalled.
func (n *Node) StallSuspected() bool {
	return n.stallDetected.Load() || n.halted.Load()
}

// ID returns the node's identity.
func (n *Node) ID() wire.NodeID { return n.cfg.Self }

// View exposes the node's membership view (for tests and tooling).
func (n *Node) View() *lot.View { return n.view }

// DebugCycle renders the internal state of one in-flight cycle; tests
// and tooling use it to diagnose stalls.
func (n *Node) DebugCycle(k uint64) string {
	c, ok := n.cycles[k]
	if !ok {
		return fmt.Sprintf("cycle %d: absent", k)
	}
	miss := ""
	if c.started && c.round == 1 {
		n.awaitR1(c, func(m wire.NodeID) bool {
			miss += fmt.Sprintf(" r1:%v", m)
			return true
		})
	}
	if c.started && c.round >= 2 && c.round <= n.tree.Height {
		target := n.tree.Ancestor(n.sl, c.round)
		own := n.tree.Ancestor(n.sl, c.round-1)
		for _, u := range n.tree.Children(target) {
			if u != own && c.child[u] == nil {
				miss += " child:" + u
			}
		}
	}
	// Per remote vnode: how the state reached this leaf (pushed or pulled
	// to this node, or rebroadcast by a peer), else the pull deadline
	// armed here, and the number of pulls this node sent.
	fd := ""
	for _, u := range n.tree.Remote(n.sl) {
		pulls := c.fetchAttempt[u]
		switch dl, armed := c.fetchDeadline[u]; {
		case c.rebroadcast[u] && pulls == 0:
			fd += fmt.Sprintf(" %s:pushed", u)
		case c.rebroadcast[u]:
			fd += fmt.Sprintf(" %s:pulled(a%d)", u, pulls)
		case c.child[u] != nil:
			fd += fmt.Sprintf(" %s:peer(a%d)", u, pulls)
		case armed:
			fd += fmt.Sprintf(" %s@%v(a%d)", u, dl, pulls)
		default:
			fd += fmt.Sprintf(" %s:unarmed(a%d)", u, pulls)
		}
	}
	cause := "-"
	if c.started {
		cause = c.cause.String()
	}
	return fmt.Sprintf("cycle %d: started=%v cause=%s round=%d complete=%v r1=%d children=%d waiting=%d missing=[%s] fetches=[%s]",
		k, c.started, cause, c.round, c.complete, len(c.r1), len(c.child), len(c.waiting), miss, fd)
}
