package core

import (
	"log/slog"
	"sort"
	"time"

	"canopus/internal/wire"
)

// Super-leaf eviction (the RCanopus direction, restricted to crash-stop
// and symmetric partitions — see docs/ARCHITECTURE.md "Failure model").
//
// Stock Canopus stalls globally when one super-leaf dies: every cycle's
// merge needs every leaf's branch state, and a dead leaf serves nobody
// (§6). With Config.LeafTimeout armed, a representative whose cross-leaf
// fetch for the next cycle to commit, K, has gone unanswered for
// LeafTimeout past the later of K's start and the previous commit runs
// an eviction round for the silent branch u in cycle K:
//
//  1. Seal own leaf: broadcast LeafSeal{K, u} intra-leaf. The leaf's
//     one delivery order (the sequencer's log) decides, identically for
//     every member, whether u's real state arrived first (eviction
//     cancels) or the seal did (plain states for u are refused from then
//     on).
//  2. Query every other surviving leaf with EvictQuery{K, u}. A queried
//     leaf that holds u's state answers with it (Resolve-flagged, so it
//     passes seals); otherwise it seals u in its own leaf the same way
//     and answers EvictPromise.
//  3. Once a majority of ALL static leaves (the initiator's plus every
//     promiser's) has u sealed, the initiator resolves the slot with a
//     tombstone: a Resolve proposal with no batches and a Leave update
//     for every static member of u's subtree. The tombstone is a pure
//     function of (K, u, static tree), so concurrent initiators resolve
//     byte-identically. Every static member of the subtree is sent an
//     Evicted notice telling it to restart through the join protocol.
//
// Committing the tombstone empties the leaf's membership in every view
// at the same cycle boundary (leafDeadAt records it). From then on the
// slot for a later cycle M is substituted locally — no protocol round —
// once M is next in commit order and M >= leafDeadAt + MaxInFlight: a
// join seating a member of the leaf at M or earlier takes its seat (and
// erases leafDeadAt) at the commit of a cycle < M, so every node resolves
// M the same way.
// Cycles in the gap (leafDeadAt, leafDeadAt+MaxInFlight) may have been
// served real state by the leaf before it died and always use full
// eviction rounds.
//
// Evicted members are refused like any node the committed view dropped
// (Recv answers them with Evicted), so their pre-eviction state never
// leaks back into consensus; they re-enter empty-handed through the join
// protocol, via a cross-leaf sponsor when their whole leaf is gone.

// evictState tracks one eviction round this node initiated for a
// (cycle, vnode) slot.
type evictState struct {
	// promised maps super-leaf ordinal -> the member that sent the
	// EvictPromise (it is also who rebroadcasts the tombstone there).
	promised map[int]wire.NodeID
	// attempt rotates EvictQuery targets across a leaf's live members.
	attempt int
	// lastDrive paces query retries.
	lastDrive time.Duration
	// resolved latches once the tombstone has been issued.
	resolved bool
}

// driveEvictions runs on every tick when LeafTimeout is armed: it
// substitutes tombstones for long-dead leaves and initiates or re-drives
// eviction rounds for branches that have been silent too long.
func (n *Node) driveEvictions() {
	if n.cfg.LeafTimeout <= 0 || n.view == nil || n.tree.Height < 2 {
		return
	}
	// Substitution first: it needs no messages and may commit cycles,
	// retiring eviction work the scan below would otherwise start.
	n.substituteDead()
	now := n.env.Now()
	liveRep := n.liveRepresentative()
	if !liveRep {
		return
	}
	for k := n.committed + 1; k <= n.started; k++ {
		c, ok := n.cycles[k]
		if !ok || !c.started || c.complete || c.round < 2 {
			continue
		}
		for r := 2; r <= n.tree.Height; r++ {
			target := n.tree.Ancestor(n.sl, r)
			ownBranch := n.tree.Ancestor(n.sl, r-1)
			for _, u := range n.tree.Children(target) {
				if u == ownBranch || c.child[u] != nil {
					continue
				}
				if d := n.deadSince(u); d > 0 {
					if c.id >= d+uint64(n.cfg.MaxInFlight) {
						continue // substitution will resolve this slot
					}
					// Gap cycle of an already-evicted leaf: its timeout
					// expired when the first tombstone committed; waiting
					// a fresh LeafTimeout per gap cycle would stretch one
					// outage into MaxInFlight of them. The seal round
					// still arbitrates against a concurrent resurrection
					// (which clears leafDeadAt and restores the wait).
					n.driveEviction(c, u, now)
					continue
				}
				// Only the next cycle to commit is charged, and its silence
				// clock starts at the later of its start and the previous
				// commit (silentSince). A leaf cannot
				// start cycle k before it commits k-MaxInFlight: while an
				// earlier cycle here waits on a dead leaf, a healthy leaf
				// held one cycle further back by the same dead leaf (a
				// fault cut off that leaf's copy of the state we got) has
				// not served k yet, and the clock of a pipelined cycle
				// would evict it. Likewise a cycle begun while the leaf was
				// dead carries a startedAt that had already expired when
				// the leaf was readmitted, and charging that stale wait
				// would re-evict the leaf before its first state can cross
				// the WAN; a readmission happens at a commit (seat), so the
				// previous commit covers it.
				if c.id != n.committed+1 {
					continue
				}
				if now-n.silentSince(c) <= n.cfg.LeafTimeout {
					continue
				}
				n.driveEviction(c, u, now)
			}
		}
	}
}

// driveEviction starts (or re-drives) the eviction round for branch u of
// cycle c.
func (n *Node) driveEviction(c *cycle, u string, now time.Duration) {
	es := c.evict[u]
	if es == nil {
		if _, ok := n.evictionQuorum(c); !ok {
			return // not enough surviving leaves to decide an eviction
		}
		if c.evict == nil {
			c.evict = make(map[string]*evictState)
		}
		es = &evictState{promised: make(map[int]wire.NodeID)}
		c.evict[u] = es
		n.trace("evict-start", c.id, slog.String("vnode", u), slog.Duration("at", now), slog.Duration("started", c.startedAt))
		n.bc.Broadcast(&wire.LeafSeal{Cycle: c.id, VNode: u, Initiator: n.cfg.Self})
		n.sendEvictQueries(c, u, es, now)
		return
	}
	if !es.resolved && now-es.lastDrive >= 4*n.cfg.FetchTimeout {
		n.sendEvictQueries(c, u, es, now) // lost queries or slow leaves
	}
}

// sendEvictQueries asks one live member of every required leaf that has
// not yet promised, rotating targets per attempt like fetch retries.
func (n *Node) sendEvictQueries(c *cycle, u string, es *evictState, now time.Duration) {
	es.lastDrive = now
	es.attempt++
	required, _ := n.evictionQuorum(c)
	for _, sl := range required {
		if _, ok := es.promised[sl]; ok {
			continue
		}
		members := n.view.Members(sl)
		if len(members) == 0 {
			continue
		}
		idx := (es.attempt - 1 + int(c.id) + int(n.cfg.Self)) % len(members)
		n.env.Send(members[idx], &wire.EvictQuery{Cycle: c.id, VNode: u, From: n.cfg.Self})
	}
}

// evictionQuorum computes the leaves whose promises an eviction round in
// cycle c needs. Targets — leaves already dead in the view plus every
// leaf under a branch state cycle c is still missing (they are being
// evicted together; under symmetric faults a leaf unreachable from here
// is also missing this leaf's state and cannot commit c divergently) —
// are excluded. The round may only proceed if the participants (the
// required leaves plus this one) form a majority of ALL static leaves,
// so two disjoint partitions can never both evict their way forward.
func (n *Node) evictionQuorum(c *cycle) (required []int, ok bool) {
	target := make(map[int]bool)
	for i := 0; i < n.tree.NumSuperLeaves(); i++ {
		if len(n.view.Members(i)) == 0 {
			target[i] = true
		}
	}
	for r := 2; r <= n.tree.Height; r++ {
		t := n.tree.Ancestor(n.sl, r)
		own := n.tree.Ancestor(n.sl, r-1)
		for _, u := range n.tree.Children(t) {
			if u == own || c.child[u] != nil {
				continue
			}
			for _, sl := range n.tree.DescendantSuperLeaves(u) {
				target[sl] = true
			}
		}
	}
	for i := 0; i < n.tree.NumSuperLeaves(); i++ {
		if i == n.sl || target[i] {
			continue
		}
		required = append(required, i)
	}
	ok = 2*(len(required)+1) > n.tree.NumSuperLeaves()
	return required, ok
}

// onLeafSeal handles a LeafSeal at its reliable-broadcast delivery: the
// leaf's one delivery order is what makes "sealed before the state
// arrived" a leaf-wide fact. origin is the member that broadcast the
// seal; it alone answers the initiator, so a query yields one reply.
func (n *Node) onLeafSeal(origin wire.NodeID, m *wire.LeafSeal) {
	u := m.VNode
	if m.Cycle <= n.committed {
		// The cycle resolved before the seal landed: the origin serves
		// the initiator from the retained window instead.
		if origin == n.cfg.Self && m.Initiator != n.cfg.Self {
			n.serveEvictResolved(m.Initiator, m.Cycle, u)
		}
		return
	}
	if m.Cycle > n.started {
		n.tryStartCycles(m.Cycle, causePeer)
	}
	c := n.ensureCycle(m.Cycle)
	if p := c.child[u]; p != nil {
		// The state beat the seal in the delivery order: not sealed.
		if origin == n.cfg.Self && m.Initiator != n.cfg.Self {
			n.sendResolved(m.Initiator, p)
		}
		if c.evict[u] != nil {
			n.checkEviction(c, u) // cancels the round
		}
		return
	}
	if c.sealed == nil {
		c.sealed = make(map[string]bool)
	}
	c.sealed[u] = true
	n.trace("seal", m.Cycle, slog.String("vnode", u))
	if origin == n.cfg.Self && m.Initiator != n.cfg.Self {
		n.env.Send(m.Initiator, &wire.EvictPromise{Cycle: m.Cycle, VNode: u, From: n.cfg.Self})
	}
	if c.evict[u] != nil {
		n.checkEviction(c, u)
	}
}

// onEvictQuery is the queried leaf's entry point: serve the state if
// this node holds it, promise immediately if the slot is already sealed,
// otherwise run the seal broadcast (the promise-or-state answer is then
// sent at the seal's delivery, by its origin).
func (n *Node) onEvictQuery(m *wire.EvictQuery) {
	if n.cfg.LeafTimeout <= 0 {
		return
	}
	u := m.VNode
	if m.Cycle <= n.committed {
		n.serveEvictResolved(m.From, m.Cycle, u)
		return
	}
	if m.Cycle > n.started {
		n.tryStartCycles(m.Cycle, causePeer)
	}
	c := n.ensureCycle(m.Cycle)
	if p := c.child[u]; p != nil {
		n.sendResolved(m.From, p)
		return
	}
	if c.sealed[u] {
		n.env.Send(m.From, &wire.EvictPromise{Cycle: m.Cycle, VNode: u, From: n.cfg.Self})
		return
	}
	n.bc.Broadcast(&wire.LeafSeal{Cycle: m.Cycle, VNode: u, Initiator: m.From})
}

// onEvictPromise records a leaf's promise toward an eviction round this
// node initiated.
func (n *Node) onEvictPromise(from wire.NodeID, m *wire.EvictPromise) {
	if m.Cycle <= n.committed {
		return
	}
	c, ok := n.cycles[m.Cycle]
	if !ok {
		return
	}
	es := c.evict[m.VNode]
	if es == nil || es.resolved {
		return
	}
	if sl := n.tree.SuperLeafOf(from); sl >= 0 {
		es.promised[sl] = from
	}
	n.checkEviction(c, m.VNode)
}

// checkEviction resolves (or cancels) an eviction round once its inputs
// have settled: the real state arriving cancels it; the own-leaf seal
// plus a promise from every required leaf resolves it with a tombstone.
func (n *Node) checkEviction(c *cycle, u string) {
	es := c.evict[u]
	if es == nil || es.resolved {
		return
	}
	if c.child[u] != nil {
		delete(c.evict, u)
		return
	}
	if !c.sealed[u] {
		return
	}
	required, ok := n.evictionQuorum(c)
	if !ok {
		return
	}
	for _, sl := range required {
		if _, promised := es.promised[sl]; !promised {
			return
		}
	}
	es.resolved = true
	n.stats.leafEvictions.Add(1)
	n.trace("evict-resolve", c.id, slog.String("vnode", u))
	tomb := n.tombstone(c.id, u)
	// Own leaf incorporates the tombstone at broadcast delivery (the
	// slot is sealed; Resolve lets it through); each promiser receives
	// it directly and rebroadcasts in its own leaf, exactly like a fetch
	// response.
	n.bc.Broadcast(tomb)
	// Promisers in super-leaf order: map iteration order must not leak
	// into the send sequence (deterministic replay).
	ords := make([]int, 0, len(es.promised))
	for sl := range es.promised {
		ords = append(ords, sl)
	}
	sort.Ints(ords)
	for _, sl := range ords {
		n.env.Send(es.promised[sl], tomb)
	}
	// Tell the evicted subtree's members (stalled survivors in
	// particular) to restart through the join protocol. Partitioned
	// members miss these notices and learn reactively on heal, from the
	// dead-in-view gate.
	for _, sl := range n.tree.DescendantSuperLeaves(u) {
		for _, member := range n.tree.SuperLeaf(sl).Members {
			n.env.Send(member, &wire.Evicted{From: n.cfg.Self})
		}
	}
}

// tombstone builds the canonical replacement state for dead branch u of
// cycle k: no batches, a Leave for every static member of u's subtree
// (idempotent for members already dead in the view — applying a Leave
// twice is a no-op — and void for a seat still pending, whose member never
// served cycle k). A pure function of (k, u, static tree), so every
// construction — any initiator's eviction round, any node's local
// substitution — is byte-identical.
func (n *Node) tombstone(k uint64, u string) *wire.Proposal {
	vn := n.tree.VNode(u)
	p := &wire.Proposal{
		Cycle:   k,
		Round:   uint8(vn.Height),
		VNode:   u,
		Origin:  wire.NoNode,
		Resolve: true,
	}
	for _, sl := range n.tree.DescendantSuperLeaves(u) {
		for _, member := range n.tree.SuperLeaf(sl).Members {
			p.Updates = append(p.Updates, wire.MemberUpdate{Node: member, Leave: true})
		}
	}
	return p
}

// substituteDead fills missing branch states of the next-to-commit cycle
// with tombstones when every leaf under the branch has been dead — in
// the committed view — for at least MaxInFlight cycles. Restricting
// substitution to committed+1 makes it consistent cluster-wide without a
// protocol round: a Join seating a member of the leaf at cycle M or
// earlier takes the seat, erasing leafDeadAt, by the commit of M-1; and the
// dead leaf cannot have served a real state for M, because it never even
// started a cycle that far past its own last commit.
func (n *Node) substituteDead() {
	for {
		c, ok := n.cycles[n.committed+1]
		if !ok || !c.started || c.complete || c.round < 2 {
			return
		}
		changed := false
		for r := 2; r <= n.tree.Height; r++ {
			target := n.tree.Ancestor(n.sl, r)
			ownBranch := n.tree.Ancestor(n.sl, r-1)
			for _, u := range n.tree.Children(target) {
				if u == ownBranch || c.child[u] != nil {
					continue
				}
				d := n.deadSince(u)
				if d == 0 || c.id < d+uint64(n.cfg.MaxInFlight) {
					continue
				}
				if c.child == nil {
					c.child = make(map[string]*wire.Proposal)
				}
				c.child[u] = n.tombstone(c.id, u)
				delete(c.evict, u)
				changed = true
				n.trace("substitute", c.id, slog.String("vnode", u))
			}
		}
		if !changed {
			return
		}
		before := n.committed
		n.advance(c)
		if n.committed == before {
			return // substitution alone did not complete the cycle
		}
		// Committed at least one cycle: the new committed+1 may now be
		// substitutable too.
	}
}

// deadSince returns the committed cycle since which every super-leaf
// under branch u has been dead in the view (the latest of their
// leafDeadAt marks), or 0 if any of them is alive or unrecorded.
func (n *Node) deadSince(u string) uint64 {
	var d uint64
	for _, sl := range n.tree.DescendantSuperLeaves(u) {
		at, ok := n.leafDeadAt[sl]
		if !ok {
			return 0
		}
		if at > d {
			d = at
		}
	}
	return d
}

// serveEvictResolved answers an eviction-round query for an
// already-committed cycle from the retained child-state window. A miss
// is fine: the requester re-queries, rotating members.
func (n *Node) serveEvictResolved(to wire.NodeID, cyc uint64, u string) {
	if states, ok := n.recentChild[cyc]; ok {
		if p := states[u]; p != nil {
			n.sendResolved(to, p)
		}
	}
}

// sendResolved sends a copy of state p flagged Resolve, so it passes the
// requester's leaf seal. The copy is shallow — received messages are
// read-only by convention, so sharing the slices is safe.
func (n *Node) sendResolved(to wire.NodeID, p *wire.Proposal) {
	if p.Resolve {
		n.env.Send(to, p)
		return
	}
	cp := *p
	cp.Resolve = true
	n.env.Send(to, &cp)
}

// onEvictedNotice handles the cluster's verdict that the committed view
// dropped this node — its leaf evicted, or itself cut by its leaf-mates:
// behave like a stall, but tell the operator to restart through the join
// protocol rather than wait.
func (n *Node) onEvictedNotice(m *wire.Evicted) {
	if n.rejoin || n.evicted {
		return
	}
	if n.env.Now() < n.evictGraceUntil {
		// A remote that has not yet committed our Join still sees us
		// dead; real evictions keep re-notifying past the grace.
		return
	}
	n.halt(true)
}

// halt stops this node's participation (§6 stall semantics): its
// super-leaf lost its majority, or — evicted — the committed view dropped
// it (its leaf-mates cut it, or the cluster evicted its leaf). Committed-
// state reads and session completions waiting for cycles that will not
// commit here fail, and an eviction tells the operator to restart the
// node through the join protocol.
func (n *Node) halt(evicted bool) {
	n.halted.Store(true)
	if evicted {
		n.evicted = true
		n.stats.evictedSelf.Add(1)
	}
	if !n.stalled {
		n.stalled = true
		n.stats.stalls.Add(1)
	}
	n.FailLocalReads()
	n.FailSessionWaiters()
	if evicted && n.cbs.OnEvicted != nil {
		n.cbs.OnEvicted()
	}
}

// LeafHealth is one super-leaf's liveness as this node's committed view
// sees it (see Node.LeafHealth).
type LeafHealth struct {
	SL      int           // super-leaf ordinal
	Members []wire.NodeID // static membership
	Alive   []wire.NodeID // live members in the committed view
	Failed  bool          // too few live members to make progress
	Evicted bool          // dead and excluded from the merge
	// EvictedAt is the cycle whose commit emptied the leaf (0 unless
	// Evicted).
	EvictedAt uint64
}

// LeafHealth reports per-super-leaf liveness from this node's committed
// view: the admin /status leaf-liveness section is built from it. Call
// from the node's event context.
func (n *Node) LeafHealth() []LeafHealth {
	out := make([]LeafHealth, n.tree.NumSuperLeaves())
	for i := range out {
		h := &out[i]
		h.SL = i
		h.Members = n.tree.SuperLeaf(i).Members
		if n.view != nil {
			h.Alive = n.view.Members(i)
			h.Failed = n.view.SuperLeafFailed(i)
		}
		if at, ok := n.leafDeadAt[i]; ok {
			h.Evicted = true
			h.EvictedAt = at
		}
	}
	return out
}

// LeafEvictions returns how many super-leaf eviction rounds this node
// resolved with a tombstone; LeafReadmissions how many evicted leaves a
// member's rejoin re-admitted. Safe from any goroutine (atomic reads) —
// the chaos harness folds them into its run result.
func (n *Node) LeafEvictions() uint64 { return n.stats.leafEvictions.Load() }

// LeafReadmissions — see LeafEvictions.
func (n *Node) LeafReadmissions() uint64 { return n.stats.leafReadmissions.Load() }
