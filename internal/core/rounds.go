package core

import (
	"cmp"
	"log/slog"
	"slices"
	"sort"
	"time"

	"canopus/internal/wire"
)

// onDeliver handles a reliable-broadcast delivery within the super-leaf:
// either a peer's round-1 proposal, or a representative's rebroadcast of
// a fetched vnode state.
func (n *Node) onDeliver(origin wire.NodeID, payload wire.Message) {
	if seal, ok := payload.(*wire.LeafSeal); ok {
		// An eviction round's seal (leaf.go): the leaf's one delivery
		// order decides, leaf-wide, whether it lands before or after the
		// state it races.
		n.onLeafSeal(origin, seal)
		return
	}
	p, ok := payload.(*wire.Proposal)
	if !ok {
		return
	}
	n.trace("deliver", p.Cycle, slog.String("vnode", p.VNode), slog.Int("origin", int(origin)))
	if p.Cycle <= n.committed {
		return // stale delivery for an already-committed cycle
	}
	// Any message from a cycle beyond the newest started one prompts
	// starting cycles, in sequence, up to it (§4.4, §7.1).
	if p.Cycle > n.started {
		n.tryStartCycles(p.Cycle, causePeer)
	}
	c := n.ensureCycle(p.Cycle)
	if p.VNode == "" {
		// A peer's round-1 origin proposal (vnode states always name
		// their vnode).
		if _, dup := c.r1[origin]; dup {
			return
		}
		if c.r1 == nil {
			c.r1 = make(map[wire.NodeID]*wire.Proposal)
		}
		c.r1[origin] = p
		n.advance(c)
		return
	}
	// Rebroadcast vnode state.
	if _, dup := c.child[p.VNode]; dup {
		return
	}
	if c.sealed[p.VNode] && !p.Resolve {
		return // slot sealed by an eviction round; only a Resolve fills it
	}
	if c.child == nil {
		c.child = make(map[string]*wire.Proposal)
	}
	c.child[p.VNode] = p
	if c.evict[p.VNode] != nil {
		n.checkEviction(c, p.VNode) // real state arrived: cancel the round
	}
	n.advance(c)
}

// onPeerFailed handles the failure cut for a super-leaf peer: no further
// broadcast deliveries from it will arrive, so any cycle waiting on its
// round-1 proposal stops waiting, and the membership change is queued to
// ride the next proposal (§4.6).
func (n *Node) onPeerFailed(peer wire.NodeID) {
	if peer == n.cfg.Self {
		// The super-leaf cut this node from its broadcast: the rest of
		// the rack considers us dead. Crash-stop semantics forbid
		// continuing; halt until restarted through the join protocol.
		n.halt(false)
		return
	}
	if n.closedPeers[peer] {
		return
	}
	n.closedPeers[peer] = true
	n.pendingUpdates = append(n.pendingUpdates, wire.MemberUpdate{Node: peer, Leave: true})

	// Super-leaf health: reliable broadcast needs a majority of the
	// current membership (§4.3). Count configured members minus closed.
	live := 0
	for _, m := range n.view.Members(n.sl) {
		if !n.closedPeers[m] {
			live++
		}
	}
	if live < len(n.tree.SuperLeaf(n.sl).Members)/2+1 {
		n.halt(false)
		return
	}
	// Re-evaluate all in-flight cycles stuck in round 1, and have a cycle
	// carry the Leave on an idle node: the peer's retry to join is
	// sponsored only once it has committed.
	for k := n.committed + 1; k <= n.started; k++ {
		if c, ok := n.cycles[k]; ok && c.started && !c.complete {
			n.advance(c)
		}
	}
	n.startSelfClocked(causeOther)
	// Representative takeover (RCanopus §3, restricted to crash-stop):
	// states pushed to the dead peer are lost, and the ones the modulo
	// rule assigned to it would otherwise wait for the slow escalation
	// path, because no survivor armed a deadline for them. Every
	// surviving representative immediately re-drives the in-flight cycles
	// by pulling all their missing states; the duplication is one round
	// of redundant requests, the cut guarantees every survivor eventually
	// does the same.
	n.reassignFetches()
}

// reassignFetches pulls every missing state of every in-flight cycle,
// provided this node is a representative of the effective (post
// failure-cut) membership.
func (n *Node) reassignFetches() {
	if !n.liveRepresentative() {
		return
	}
	for k := n.committed + 1; k <= n.started; k++ {
		if c, ok := n.cycles[k]; ok && c.started && !c.complete {
			n.pullMissing(c)
		}
	}
}

// advance drives cycle c through as many rounds as its inputs allow,
// then commits if it is the next cycle in order.
func (n *Node) advance(c *cycle) {
	if !c.started || c.complete {
		return
	}
	progressed := false
	for {
		switch {
		case c.round <= 1:
			if !n.round1Complete(c) {
				goto out
			}
			n.finishRound1(c)
			progressed = true
		case c.round <= n.tree.Height:
			if !n.mergeRound(c) {
				goto out
			}
			progressed = true
		default:
			c.complete = true
			n.tryCommit()
			return
		}
	}
out:
	if progressed {
		n.tryCommit()
	}
}

// round1Complete reports whether proposals from every member of the
// super-leaf seated in cycle c (including self) have been delivered.
// Proposals already delivered from since-failed peers still count: the
// failure cut guarantees every survivor saw the same ones.
func (n *Node) round1Complete(c *cycle) bool {
	return n.awaitR1(c, func(wire.NodeID) bool { return false })
}

// awaitR1 calls fn for each member of this super-leaf whose round-1
// proposal cycle c still waits for, and reports false as soon as fn does.
// The committed view decides who is owed: its seated members short of a
// failure cut, and a pending seat that counts from c or earlier — a node
// may start c before it commits the cycle that takes the seat, and the old
// incarnation's cut says nothing about the new one.
func (n *Node) awaitR1(c *cycle, fn func(wire.NodeID) bool) bool {
	for _, m := range n.view.Members(n.sl) {
		if !n.closedPeers[m] && c.r1[m] == nil && !fn(m) {
			return false
		}
	}
	for _, s := range n.view.Pending() {
		if s.From <= c.id && n.tree.SuperLeafOf(s.Node) == n.sl && c.r1[s.Node] == nil && !fn(s.Node) {
			return false
		}
	}
	return true
}

// finishRound1 merges the round-1 proposals into the height-1 vnode
// state: order proposals by (proposal number, origin) and concatenate
// their request sets (§4.2).
func (n *Node) finishRound1(c *cycle) {
	props := c.props[:0]
	for _, p := range c.r1 {
		props = append(props, p)
	}
	slices.SortFunc(props, mergeOrder)
	c.states[1] = n.mergeProposals(c.id, 1, n.tree.Ancestor(n.sl, 1), props)
	c.releaseProps(props)
	c.round = 2
	n.trace("r1-done", c.id)
	n.serveWaiting(c)
	n.pushState(c, 1)
}

// mergeRound attempts to finish round c.round (≥2): the state of the
// height-r ancestor is the merge of its children's states, one of which
// (this node's own branch) was computed locally last round and the rest
// of which arrive by push (or fallback pull) + rebroadcast.
func (n *Node) mergeRound(c *cycle) bool {
	r := c.round
	target := n.tree.Ancestor(n.sl, r)
	ownBranch := n.tree.Ancestor(n.sl, r-1)
	children := n.tree.Children(target)
	state := func(u string) *wire.Proposal {
		if u == ownBranch {
			return c.states[r-1]
		}
		return c.child[u]
	}
	// advance retries this on every delivery: find out whether the round
	// can finish before allocating anything for it.
	for _, u := range children {
		if state(u) == nil {
			return false
		}
	}
	props := c.props[:0]
	for _, u := range children {
		props = append(props, state(u))
	}
	slices.SortFunc(props, mergeOrder)
	c.states[r] = n.mergeProposals(c.id, uint8(r), target, props)
	c.releaseProps(props)
	c.round = r + 1
	n.trace("round-done", c.id, slog.String("vnode", target))
	n.serveWaiting(c)
	n.pushState(c, r)
	return true
}

// mergeOrder is the order in which a merge concatenates its inputs (§4.2):
// ascending proposal number, ties broken by vnode ID, then origin. Round-1
// proposals all have the empty vnode ID and distinct origins, vnode states
// distinct vnode IDs, so it is total on either.
func mergeOrder(a, b *wire.Proposal) int {
	return cmp.Or(cmp.Compare(a.Num, b.Num), cmp.Compare(a.VNode, b.VNode), cmp.Compare(a.Origin, b.Origin))
}

// releaseProps returns a merge's sort buffer to the cycle, emptied so a
// pooled cycle pins no proposal.
func (c *cycle) releaseProps(props []*wire.Proposal) {
	clear(props)
	c.props = props[:0]
}

// mergeBox4 and mergeBox16 let a merged state and its batch list come out
// of one allocation: a super-leaf of three's height-1 state, and the
// height-2 state of a 3 × 3 deployment. A larger merge allocates its list
// apart. The box is not shared with other states: each is kept for as long
// as the retention window keeps its cycle.
type mergeBox4 struct {
	p    wire.Proposal
	ptrs [4]*wire.Batch
}

type mergeBox16 struct {
	p    wire.Proposal
	ptrs [16]*wire.Batch
}

// newMerged returns a zero proposal whose Batches has room for n.
func newMerged(n int) *wire.Proposal {
	switch {
	case n == 0:
		return &wire.Proposal{}
	case n <= 4:
		box := &mergeBox4{}
		box.p.Batches = box.ptrs[:0]
		return &box.p
	case n <= 16:
		box := &mergeBox16{}
		box.p.Batches = box.ptrs[:0]
		return &box.p
	}
	return &wire.Proposal{Batches: make([]*wire.Batch, 0, n)}
}

// mergeProposals builds the state of vnode target from its ordered
// children: concatenated batches, the largest proposal number, and the
// unions of membership and session updates. The result is a pure
// function of the inputs, so every emulator of target computes an
// identical message.
func (n *Node) mergeProposals(cyc uint64, round uint8, target string, ordered []*wire.Proposal) *wire.Proposal {
	batches := 0
	for _, p := range ordered {
		batches += len(p.Batches)
	}
	out := newMerged(batches)
	out.Cycle, out.Round, out.VNode, out.Origin = cyc, round, target, wire.NoNode
	// The dedup maps are created lazily: most cycles carry no membership
	// or session updates, and the maps would be two dead allocations per
	// merge on the commit hot path.
	var seenUpd map[wire.MemberUpdate]bool
	var seenSess map[wire.SessionUpdate]bool
	for _, p := range ordered {
		if p.Num > out.Num {
			out.Num = p.Num
		}
		out.Batches = append(out.Batches, p.Batches...)
		for _, u := range p.Updates {
			if !seenUpd[u] {
				if seenUpd == nil {
					seenUpd = make(map[wire.MemberUpdate]bool)
				}
				seenUpd[u] = true
				out.Updates = append(out.Updates, u)
			}
		}
		for _, s := range p.Sessions {
			if !seenSess[s] {
				if seenSess == nil {
					seenSess = make(map[wire.SessionUpdate]bool)
				}
				seenSess[s] = true
				out.Sessions = append(out.Sessions, s)
			}
		}
	}
	return out
}

// serveWaiting answers buffered proposal-requests that the just-computed
// states can now satisfy.
func (n *Node) serveWaiting(c *cycle) {
	if len(c.waiting) == 0 {
		return
	}
	rest := c.waiting[:0]
	for _, w := range c.waiting {
		if p := n.stateFor(c, w.vnode); p != nil {
			n.env.Send(w.from, p)
		} else {
			rest = append(rest, w)
		}
	}
	c.waiting = rest
}

// stateFor returns cycle c's computed state for vnode v, or nil.
func (n *Node) stateFor(c *cycle, v string) *wire.Proposal {
	vn := n.tree.VNode(v)
	if vn == nil || vn.Height >= len(c.states) {
		return nil
	}
	return c.states[vn.Height]
}

// pushState sends cycle c's just-computed height-r state — that of this
// node's own ancestor u — to the super-leaves that merge it: every leaf
// under a sibling of u. One emulator of u pushes per (cycle, leaf), see
// pusherFor, to the representative the §4.5 modulo rule makes
// responsible for u in that leaf; the receiver handles it as a fetch
// response. Views can disagree for a cycle or two around a membership
// change, and then two emulators push (the receiver drops the duplicate)
// or none does (the receiver pulls on its deadline).
func (n *Node) pushState(c *cycle, r int) {
	if r >= n.tree.Height {
		return // the root state is the result, nobody merges it
	}
	p := c.states[r]
	for _, sib := range n.tree.Children(n.tree.Ancestor(n.sl, r+1)) {
		if sib == p.VNode {
			continue
		}
		for _, sl := range n.tree.DescendantSuperLeaves(sib) {
			if n.pusherFor(p.VNode, c.id, sl) != n.cfg.Self {
				continue
			}
			to := n.view.RepresentativeFor(sl, p.VNode, n.cfg.NumReps)
			if to == wire.NoNode {
				continue // the whole leaf is dead in the view
			}
			n.trace("push", c.id, slog.String("vnode", p.VNode))
			n.stats.statePushes.Add(1)
			n.env.Send(to, p)
		}
	}
}

// pusherFor returns the emulator of vnode u that pushes u's state of
// cycle cyc to super-leaf sl: the committed view's emulators of u take
// turns by cycle and leaf, so every emulator computes the same answer
// without communication. Peers beyond this leaf's failure cut are passed
// over — the view lists them until their Leave commits, and until then
// the cycles they would have pushed would each wait out a FetchTimeout.
func (n *Node) pusherFor(u string, cyc uint64, sl int) wire.NodeID {
	turn := cyc + uint64(sl)
	e := n.view.EmulatorAt(u, turn)
	for k := len(n.closedPeers); k > 0 && n.closedPeers[e]; k-- {
		turn++
		e = n.view.EmulatorAt(u, turn)
	}
	return e
}

// armFetches runs at cycle start: for every remote vnode state the §4.5
// modulo rule makes this node responsible for, it arms the deadline
// after which the state, normally pushed by one of its emulators, is
// pulled instead. The pull goes out at once where the push cannot
// arrive: remote pushers aim at the committed view's representative, and
// a peer beyond the failure cut stays in that view until its Leave
// commits.
func (n *Node) armFetches(c *cycle) {
	if n.tree.Height < 2 {
		return
	}
	// One membership scan per call, not per vnode: this runs for every
	// started cycle, and simulations run millions of them.
	reps := n.effectiveReps()
	for _, u := range n.tree.Remote(n.sl) {
		if c.child[u] != nil || c.rebroadcast[u] || n.repFor(reps, u) != n.cfg.Self {
			continue
		}
		if n.closedPeers[n.view.RepresentativeFor(n.sl, u, n.cfg.NumReps)] {
			n.sendFetch(c, u)
			continue
		}
		if c.fetchDeadline == nil {
			c.fetchDeadline = make(map[string]time.Duration)
		}
		c.fetchDeadline[u] = c.startedAt + n.cfg.FetchTimeout
	}
}

// pullMissing requests every remote vnode state cycle c still lacks,
// whatever the modulo rule says; callers check that this node is a live
// representative. It serves representative takeover and the retry path's
// escalation.
func (n *Node) pullMissing(c *cycle) {
	for _, u := range n.tree.Remote(n.sl) {
		if c.child[u] == nil {
			n.sendFetch(c, u)
		}
	}
}

// effectiveReps returns the super-leaf's representative set computed
// over the effective membership: the committed view minus peers beyond
// the failure cut. The view still lists a freshly failed peer until its
// Leave update commits — which may never happen if the cycle carrying it
// is itself stuck behind the dead representative's fetches — so both
// fetch assignment and failure recovery must exclude cut peers, or new
// cycles keep assigning fetches to a corpse.
//
// The result is valid until the next call: it is rebuilt in one buffer,
// because every started cycle asks (armFetches).
func (n *Node) effectiveReps() []wire.NodeID {
	reps := n.repsBuf[:0]
	for _, m := range n.view.Members(n.sl) {
		if n.closedPeers[m] {
			continue
		}
		reps = append(reps, m)
		if len(reps) == n.cfg.NumReps {
			break
		}
	}
	n.repsBuf = reps
	return reps
}

// repFor returns the representative responsible for vnode u's state in
// this super-leaf, via the §4.5 modulo rule over the given effective
// representative set (callers hoist effectiveReps out of their loops).
func (n *Node) repFor(reps []wire.NodeID, u string) wire.NodeID {
	if len(reps) == 0 {
		return wire.NoNode
	}
	return reps[n.tree.RepSlot(n.sl, u)%len(reps)]
}

// liveRepresentative reports whether this node is an effective
// representative.
func (n *Node) liveRepresentative() bool {
	for _, r := range n.effectiveReps() {
		if r == n.cfg.Self {
			return true
		}
	}
	return false
}

// sendFetch pulls: it asks one emulator of vnode u for its state in
// cycle c, rotating through the emulation table from one pull to the
// next (§4.6: "if the chosen emulator does not respond before a timeout
// ... picks another live emulator from the table").
func (n *Node) sendFetch(c *cycle, u string) {
	n.trace("fetch", c.id, slog.String("vnode", u))
	ems := n.view.Emulators(u)
	if c.fetchAttempt == nil {
		c.fetchAttempt = make(map[string]int)
	}
	if c.fetchDeadline == nil {
		c.fetchDeadline = make(map[string]time.Duration)
	}
	if len(ems) == 0 {
		// All descendants dead in view: no one to ask — the consensus
		// process stalls (§6) until eviction or substitution fills the
		// slot. Still arm the retry deadline: if the leaf is readmitted
		// before then, the next retry pass resumes fetching. Dropping
		// the deadline here would leave the slot unfetchable for the
		// cycle's whole life — a rejoined leaf would serve nothing and
		// be evicted right back out.
		c.fetchDeadline[u] = n.env.Now() + n.cfg.FetchTimeout
		return
	}
	attempt := c.fetchAttempt[u]
	c.fetchAttempt[u] = attempt + 1
	if dl, armed := c.fetchDeadline[u]; armed && n.env.Now() >= dl {
		n.stats.fetchRetries.Add(1) // the state did not arrive in time
	}
	// Spread first attempts across emulators so a popular vnode's load
	// is balanced, deterministically per (cycle, vnode, node).
	idx := (attempt + int(c.id) + int(n.cfg.Self)) % len(ems)
	target := ems[idx]
	vn := n.tree.VNode(u)
	n.env.Send(target, &wire.ProposalRequest{
		Cycle: c.id,
		Round: uint8(vn.Height + 1),
		VNode: u,
		From:  n.cfg.Self,
	})
	c.fetchDeadline[u] = n.env.Now() + n.cfg.FetchTimeout
}

// onProposalRequest answers (or buffers) another super-leaf's request
// for a vnode state. Requests for already-committed cycles — a lagging
// super-leaf catching up — are served from the retained state window.
func (n *Node) onProposalRequest(from wire.NodeID, m *wire.ProposalRequest) {
	n.trace("fetch-req", m.Cycle, slog.String("vnode", m.VNode))
	if m.Cycle <= n.committed {
		if states := n.recent[m.Cycle]; states != nil {
			if vn := n.tree.VNode(m.VNode); vn != nil && vn.Height < len(states) && states[vn.Height] != nil {
				n.env.Send(from, states[vn.Height])
			}
		}
		// Beyond the retention window the requester's retries rotate to
		// another emulator; backpressure (MaxInFlight) bounds how far any
		// super-leaf can trail, so retention covers all reachable lags.
		return
	}
	if m.Cycle > n.started {
		n.tryStartCycles(m.Cycle, causePeer)
	}
	c := n.ensureCycle(m.Cycle)
	if p := n.stateFor(c, m.VNode); p != nil {
		n.env.Send(from, p)
		return
	}
	c.waiting = append(c.waiting, pendingReq{from: from, vnode: m.VNode})
}

// onFetchResponse handles a directly addressed vnode state — pushed by
// one of its emulators, or the answer to a pull: record it and
// rebroadcast to super-leaf peers. The state is consumed on broadcast
// delivery so that every member — including this one — incorporates it
// at an agreed point.
func (n *Node) onFetchResponse(p *wire.Proposal) {
	n.trace("fetch-resp", p.Cycle, slog.String("vnode", p.VNode))
	if p.VNode == "" || p.Cycle <= n.committed {
		return
	}
	if p.VNode == n.rootVNode() {
		// Root states are never fetched by the normal rounds — this is a
		// recovery catch-up response (see recovery.go).
		n.onRootState(p)
		return
	}
	if p.Cycle > n.started {
		n.tryStartCycles(p.Cycle, causePeer)
	}
	c := n.ensureCycle(p.Cycle)
	if c.child[p.VNode] != nil || c.rebroadcast[p.VNode] {
		return // a peer's rebroadcast (or an earlier copy) beat this one to it
	}
	if c.sealed[p.VNode] && !p.Resolve {
		return // slot sealed by an eviction round; only a Resolve passes
	}
	if c.rebroadcast == nil {
		c.rebroadcast = make(map[string]bool)
	}
	c.rebroadcast[p.VNode] = true
	delete(c.fetchDeadline, p.VNode)
	n.bc.Broadcast(p)
}

// retryFetches pulls the states whose deadline has passed: the first
// time because the push did not arrive, after that because the pull went
// unanswered. If a cycle has been stuck far beyond the fetch timeout,
// every representative escalates to pulling all missing states
// regardless of the modulo assignment, covering the case where
// membership churn made representatives briefly disagree about
// responsibilities.
func (n *Node) retryFetches() {
	now := n.env.Now()
	liveRep := n.liveRepresentative() // once per pass, not per cycle
	for k := n.committed + 1; k <= n.started; k++ {
		c, ok := n.cycles[k]
		if !ok || !c.started || c.complete {
			continue
		}
		if n.recovered && k == n.committed+1 && now-c.startedAt > 2*n.cfg.FetchTimeout {
			// Root catch-up (recovery.go): the cycle cannot complete when
			// peers are already past it — they drop its round-1 proposals,
			// and a peer that replayed it holds only its root, not the
			// states round 2 pulls — so fetch the committed root instead.
			// Re-sends ride the normal deadline rotation.
			root := n.rootVNode()
			if dl, armed := c.fetchDeadline[root]; !armed || now >= dl {
				n.sendFetch(c, root)
			}
		}
		if c.round < 2 {
			continue
		}
		// Sorted iteration keeps retry order (and thus the whole
		// simulation) deterministic.
		var due []string
		for u, deadline := range c.fetchDeadline {
			if now >= deadline && c.child[u] == nil {
				due = append(due, u)
			}
		}
		sort.Strings(due)
		for _, u := range due {
			n.sendFetch(c, u)
		}
		if liveRep && now-c.startedAt > 4*n.cfg.FetchTimeout {
			n.pullMissing(c)
		}
	}
}
