// Package raftlite implements the Raft replication and election protocol
// used as the reliable-broadcast substrate inside a Canopus super-leaf
// (paper §4.3): every node leads its own Raft group, with its super-leaf
// peers as followers; broadcasting a message means appending it to the
// group's log; delivery happens on commit, so either all live members
// deliver a message or none do. Leader failure triggers an election whose
// winner completes any in-flight replication — and doubles as the
// super-leaf's perfect failure detector (paper Appendix A, definition 7).
//
// The implementation is a plain state machine: the owner (one
// engine.Machine per node, multiplexing many groups) feeds it messages
// and periodic ticks and receives sends, deliveries and leadership
// changes through callbacks. It performs log compaction below the commit
// index so long simulations run in bounded memory.
//
// What one broadcast costs: in a group of n the leader sends the entry to
// its n-1 followers, each answers, and on the majority's answer the leader
// sends each a commit notice — 3(n-1) messages. A notice is not answered,
// and neither is an idle heartbeat: an append that carries no entries and
// whose Commit covers its PrevIndex can only be acknowledged with a Match
// the leader already counts as committed (see onAppend). Appends with
// entries, heartbeats over an uncommitted suffix and every rejection are
// answered; liveness is the followers' election timer, which never read
// the replies.
//
// A group that can never have more than three members (Config.MaxPeers)
// sends no notice, so a broadcast costs 2(n-1) messages: a follower
// commits what an append brought it as soon as the append's last entry is
// of the leader's current term. That entry is then on the leader and on
// the follower, and two of at most three nodes are a majority of every
// membership the group can ever have — the set the leader's own commit
// counts — so it is committed by Raft's definition, and a candidate that
// lacks it cannot win an election. The bound must be the static one: in
// a group that may grow past three, seats added on the leader before the
// follower make the pair a minority.
package raftlite

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"canopus/internal/wire"
)

// Role is a Raft role.
type Role uint8

const (
	// Follower replicates the leader's log.
	Follower Role = iota
	// Candidate is running an election.
	Candidate
	// Leader owns the log and replicates it.
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// ErrNotLeader is returned by Propose on a non-leader.
var ErrNotLeader = errors.New("raftlite: not leader")

// compactionMargin is how many committed entries are retained below the
// commit index so a new leader's consistency probe never reaches
// truncated territory.
const compactionMargin = 64

// maxAppendEntries bounds entries per AppendEntries message; a leader
// with a longer backlog sends several messages back to back.
const maxAppendEntries = 64

// Config parameterizes one Raft group member.
type Config struct {
	Group uint64        // group identity carried in every message
	Self  wire.NodeID   // this member
	Peers []wire.NodeID // all members including Self
	// MaxPeers is the most members Peers can ever name, whatever
	// SetPeers later does; 0 means unbounded. At three or fewer a
	// follower commits on append and the leader sends no commit notice
	// (see the package comment).
	MaxPeers int

	// InitialLeader skips the initial election: all members start at term
	// 1 believing InitialLeader leads. NoNode means "elect normally".
	// Canopus broadcast groups always start with the origin as leader.
	InitialLeader wire.NodeID

	HeartbeatInterval  time.Duration // leader keep-alive (default 20ms)
	ElectionTimeoutMin time.Duration // follower patience lower bound (default 100ms)
	ElectionTimeoutMax time.Duration // upper bound (default 200ms)
}

func (c *Config) fill() {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.ElectionTimeoutMin == 0 {
		c.ElectionTimeoutMin = 100 * time.Millisecond
	}
	if c.ElectionTimeoutMax == 0 {
		c.ElectionTimeoutMax = 2 * c.ElectionTimeoutMin
	}
}

// IO is how a Raft instance touches the world. All callbacks are invoked
// synchronously from Handle/Tick/Propose.
type IO struct {
	// Send transmits a message to a peer.
	Send func(to wire.NodeID, m wire.Message)
	// Deliver hands a committed entry (1-based index) to the owner, in
	// strictly increasing index order. Nil payloads (leader no-op
	// barriers) are not delivered.
	Deliver func(index uint64, payload wire.Message)
	// LeaderChanged reports this member's view of leadership whenever it
	// changes; leader may be NoNode while an election is in progress.
	LeaderChanged func(term uint64, leader wire.NodeID)
	// Now returns the current (virtual or wall) time.
	Now func() time.Duration
	// Rand randomizes election timeouts.
	Rand *rand.Rand
	// Stats, when non-nil, counts the messages this member sends; the
	// groups of one node share one.
	Stats *Stats
}

// Stats counts AppendEntries sent by kind and the replies sent to them.
// The fields are atomic so an exporter may read them from any goroutine.
type Stats struct {
	// AppendsEntries carried log entries, AppendsNotice told followers of
	// a new commit index the moment it advanced, AppendsHeartbeat are the
	// periodic keep-alives with nothing to carry.
	AppendsEntries, AppendsNotice, AppendsHeartbeat atomic.Uint64
	// Replies are the AppendEntries answers sent, rejections included.
	Replies atomic.Uint64
}

// Raft is one member of one Raft group.
type Raft struct {
	cfg Config
	io  IO

	role     Role
	term     uint64
	votedFor wire.NodeID
	leader   wire.NodeID
	votes    map[wire.NodeID]bool

	// Log storage: log[0] holds global index offset+1. Entries below
	// offset are compacted away; lastOffTerm is the term of entry at
	// index offset.
	log         []wire.RaftEntry
	offset      uint64
	lastOffTerm uint64
	commit      uint64
	applied     uint64
	// verified is how far this member's log is known to equal the current
	// term's leader's: the longest prefix an accepted AppendEntries of this
	// term covered. Entries past it may be a deposed leader's leftovers, so
	// they are neither acknowledged nor committed on the leader's say-so.
	verified uint64
	// hold stops compaction (HoldCompaction).
	hold bool

	nextIndex  map[wire.NodeID]uint64
	matchIndex map[wire.NodeID]uint64

	electionDeadline time.Duration
	nextHeartbeat    time.Duration
}

// New creates a group member. The caller must then drive it with Handle
// and Tick.
func New(cfg Config, io IO) *Raft {
	cfg.fill()
	if io.Stats == nil {
		io.Stats = new(Stats)
	}
	r := &Raft{
		cfg:        cfg,
		io:         io,
		votedFor:   wire.NoNode,
		leader:     wire.NoNode,
		nextIndex:  make(map[wire.NodeID]uint64),
		matchIndex: make(map[wire.NodeID]uint64),
	}
	if cfg.InitialLeader != wire.NoNode {
		r.term = 1
		r.leader = cfg.InitialLeader
		if cfg.Self == cfg.InitialLeader {
			r.becomeLeader()
		} else {
			r.role = Follower
		}
	}
	r.resetElectionTimer()
	return r
}

// Accessors.

// Role returns the member's current role.
func (r *Raft) Role() Role { return r.role }

// Term returns the current term.
func (r *Raft) Term() uint64 { return r.term }

// Leader returns this member's view of the group leader (NoNode during
// elections).
func (r *Raft) Leader() wire.NodeID { return r.leader }

// Group returns the group ID.
func (r *Raft) Group() uint64 { return r.cfg.Group }

// LastIndex returns the index of the last log entry.
func (r *Raft) LastIndex() uint64 { return r.offset + uint64(len(r.log)) }

// CommitIndex returns the highest committed index.
func (r *Raft) CommitIndex() uint64 { return r.commit }

func (r *Raft) termAt(index uint64) uint64 {
	if index == 0 {
		return 0
	}
	if index == r.offset {
		return r.lastOffTerm
	}
	return r.log[index-r.offset-1].Term
}

func (r *Raft) entryAt(index uint64) *wire.RaftEntry {
	return &r.log[index-r.offset-1]
}

func (r *Raft) majority() int { return len(r.cfg.Peers)/2 + 1 }

// commitsOnAppend reports whether the leader and any one follower are a
// majority of every membership this group can have.
func (r *Raft) commitsOnAppend() bool { return r.cfg.MaxPeers > 0 && r.cfg.MaxPeers <= 3 }

func (r *Raft) resetElectionTimer() {
	span := r.cfg.ElectionTimeoutMax - r.cfg.ElectionTimeoutMin
	jitter := time.Duration(0)
	if span > 0 && r.io.Rand != nil {
		jitter = time.Duration(r.io.Rand.Int63n(int64(span)))
	}
	r.electionDeadline = r.io.Now() + r.cfg.ElectionTimeoutMin + jitter
}

// Propose appends payload to the group log. Only the leader accepts
// proposals; followers return ErrNotLeader and the owner forwards or
// fails as appropriate.
func (r *Raft) Propose(payload wire.Message) error {
	if r.role != Leader {
		return ErrNotLeader
	}
	r.log = append(r.log, wire.RaftEntry{Term: r.term, Payload: payload})
	if len(r.cfg.Peers) == 1 {
		r.advanceCommit()
		return nil
	}
	r.replicateAll()
	return nil
}

// Tick drives timeouts; the owner calls it periodically (every few
// milliseconds is plenty).
func (r *Raft) Tick() {
	now := r.io.Now()
	switch r.role {
	case Leader:
		if now >= r.nextHeartbeat {
			r.replicateAll()
		}
		if len(r.cfg.Peers) == 1 && r.commit < r.LastIndex() {
			// A single-member group has no follower replies to drive the
			// commit index, and Propose deliberately commits only up to
			// the previously matched index: delivering an entry inside
			// its own Propose would re-enter the owner mid-broadcast.
			// The tick completes the deferred half — match the log and
			// commit whatever is pending. Without it, a proposer that
			// fills its pipeline between ticks deadlocks: no further
			// Propose arrives, and nothing else advances the commit.
			r.matchIndex[r.cfg.Self] = r.LastIndex()
			r.advanceCommit()
		}
	default:
		if now >= r.electionDeadline {
			r.startElection()
		}
	}
}

func (r *Raft) startElection() {
	r.role = Candidate
	r.term++
	r.verified = 0
	r.votedFor = r.cfg.Self
	r.setLeader(wire.NoNode)
	r.votes = map[wire.NodeID]bool{r.cfg.Self: true}
	r.resetElectionTimer()
	if len(r.cfg.Peers) == 1 {
		r.becomeLeader()
		return
	}
	msg := &wire.RaftVote{
		Group:     r.cfg.Group,
		Term:      r.term,
		Candidate: r.cfg.Self,
		LastIndex: r.LastIndex(),
		LastTerm:  r.termAt(r.LastIndex()),
	}
	for _, p := range r.cfg.Peers {
		if p != r.cfg.Self {
			r.io.Send(p, msg)
		}
	}
}

func (r *Raft) becomeLeader() {
	r.role = Leader
	r.setLeader(r.cfg.Self)
	for _, p := range r.cfg.Peers {
		r.nextIndex[p] = r.LastIndex() + 1
		r.matchIndex[p] = 0
	}
	r.matchIndex[r.cfg.Self] = r.LastIndex()
	// Commit a barrier no-op so entries from prior terms become
	// committable in this term (Raft §5.4.2).
	r.log = append(r.log, wire.RaftEntry{Term: r.term})
	if len(r.cfg.Peers) == 1 {
		r.advanceCommit()
		return
	}
	r.replicateAll()
}

func (r *Raft) setLeader(l wire.NodeID) {
	if r.leader == l {
		return
	}
	r.leader = l
	if r.io.LeaderChanged != nil {
		r.io.LeaderChanged(r.term, l)
	}
}

func (r *Raft) stepDown(term uint64, leader wire.NodeID) {
	if term > r.term {
		r.term = term
		r.votedFor = wire.NoNode
		r.verified = 0
	}
	r.role = Follower
	r.votes = nil
	r.setLeader(leader)
	r.resetElectionTimer()
}

// replicateAll sends AppendEntries to every peer and schedules the next
// heartbeat. Followers at the same nextIndex — the normal case — are sent
// one shared message, which the live transport then encodes once.
func (r *Raft) replicateAll() {
	r.nextHeartbeat = r.io.Now() + r.cfg.HeartbeatInterval
	var shared *wire.RaftAppend
	for _, p := range r.cfg.Peers {
		if p != r.cfg.Self {
			shared = r.sendAppend(p, shared)
		}
	}
	r.matchIndex[r.cfg.Self] = r.LastIndex()
}

// appendBox lets a one-entry AppendEntries — the shape of every broadcast
// — come out of a single allocation.
type appendBox struct {
	m   wire.RaftAppend
	one [1]wire.RaftEntry
}

// sendAppend sends to its next AppendEntries and returns the message.
// reuse, when non-nil, is a message built earlier in the same pass (so
// from the same term, commit index and log); it is sent as it is if it
// starts where this follower needs it to.
func (r *Raft) sendAppend(to wire.NodeID, reuse *wire.RaftAppend) *wire.RaftAppend {
	next := r.nextIndex[to]
	if next == 0 {
		next = 1
	}
	if next <= r.offset {
		// Peer is behind the compaction horizon. By construction the
		// leader only compacts entries replicated on every peer, so this
		// can only happen transiently after leadership change; resend
		// from the horizon.
		next = r.offset + 1
	}
	prev := next - 1
	m := reuse
	if m == nil || m.PrevIndex != prev {
		box := &appendBox{m: wire.RaftAppend{
			Group:     r.cfg.Group,
			Term:      r.term,
			Leader:    r.cfg.Self,
			PrevIndex: prev,
			PrevTerm:  r.termAt(prev),
			Commit:    r.commit,
			Base:      r.offset,
		}}
		m = &box.m
		if last := r.LastIndex(); next <= last {
			end := next + maxAppendEntries
			if end > last+1 {
				end = last + 1
			}
			// A copy: the log is compacted and truncated in place, and the
			// simulator delivers this message later.
			m.Entries = append(box.one[:0], r.log[next-r.offset-1:end-r.offset-1]...)
		}
	}
	if n := uint64(len(m.Entries)); n > 0 {
		// Optimistic pipelining: assume delivery and advance nextIndex
		// immediately so subsequent proposals send only new entries
		// instead of the whole unacknowledged suffix. A rejection resets
		// nextIndex from the follower's hint.
		r.nextIndex[to] = next + n
		r.io.Stats.AppendsEntries.Add(1)
	} else {
		r.io.Stats.AppendsHeartbeat.Add(1)
	}
	r.io.Send(to, m)
	return m
}

// Handle processes one incoming message for this group. m is only read,
// and only during the call: log entries are copied out of an AppendEntries
// by value, and all that stays referenced is their immutable payloads —
// so the caller may decode m into scratch it reuses afterwards.
//
// Traffic from a node outside Peers is dropped: a member this one has
// removed — say, one that restarted before it learned of its removal —
// must neither depose a live leader with its higher term nor vote.
func (r *Raft) Handle(from wire.NodeID, m wire.Message) {
	if !slices.Contains(r.cfg.Peers, from) {
		return
	}
	switch v := m.(type) {
	case *wire.RaftAppend:
		r.onAppend(v)
	case *wire.RaftAppendReply:
		r.onAppendReply(v)
	case *wire.RaftVote:
		r.onVote(v)
	case *wire.RaftVoteReply:
		r.onVoteReply(v)
	}
}

// onAppend is the follower's side of AppendEntries.
//
// Which appends are answered: every rejection, every append that carried
// entries, and a heartbeat whose PrevIndex lies beyond its Commit. What is
// left — no entries, Commit >= PrevIndex — is a commit notice (its
// PrevIndex is the leader's matchIndex for this follower) or an idle
// heartbeat, and the answer would be "Match = PrevIndex": a prefix the
// leader already counts as committed, so the reply could advance neither
// its commit index nor anything a later real append's reply does not. The
// one reply the leader can be waiting for is to an append with entries; if
// that reply is lost, the next heartbeat still has PrevIndex > Commit and
// is answered. The rule is the same for every group size.
func (r *Raft) onAppend(m *wire.RaftAppend) {
	if m.Term < r.term {
		r.reply(m.Leader, false, r.LastIndex())
		return
	}
	r.stepDown(m.Term, m.Leader)

	// Fast-forward install: a member seated in a long-running group
	// after a rejoin starts with an empty log, while the leader has
	// compacted everything below its horizon and so can never send a
	// prefix starting at index 1. The leader only compacts entries
	// applied by every member of the group at compaction time, and none
	// while the owner holds compaction for a member it will seat
	// (HoldCompaction). Canopus holds from the commit of the member's join,
	// before its leaf-mates may start any cycle the member serves, so
	// every proposal below the base is of a cycle the join protocol's
	// state transfer covers, and a completely fresh member may adopt the
	// leader's compaction base as its own log start. Two gates keep this from skipping live data:
	// PrevIndex == Base restricts the install to the horizon probe a
	// backed-off leader sends when it genuinely cannot replay earlier
	// entries (a first-contact probe carries PrevIndex = LastIndex, and
	// an uncompacted leader carries Base = 0 — both are rejected so the
	// leader replays from index 1); PrevIndex <= Commit guards against
	// adopting in-flight uncommitted entries as applied.
	if m.PrevIndex > 0 && m.PrevIndex == m.Base && m.PrevIndex <= m.Commit &&
		r.offset == 0 && len(r.log) == 0 && r.applied == 0 {
		r.offset = m.PrevIndex
		r.lastOffTerm = m.PrevTerm
		r.applied = m.PrevIndex
		if r.commit < m.PrevIndex {
			r.commit = m.PrevIndex
		}
	}

	if m.PrevIndex > r.LastIndex() {
		r.reply(m.Leader, false, r.LastIndex())
		return
	}
	if m.PrevIndex >= r.offset && r.termAt(m.PrevIndex) != m.PrevTerm {
		// Conflict: ask the leader to back up to our commit point, which
		// is guaranteed consistent.
		r.reply(m.Leader, false, r.commit)
		return
	}
	// Append entries, truncating any conflicting suffix.
	idx := m.PrevIndex
	for i := range m.Entries {
		idx++
		if idx <= r.offset {
			continue // already compacted, necessarily identical
		}
		if idx <= r.LastIndex() {
			if r.termAt(idx) == m.Entries[i].Term {
				continue
			}
			r.log = r.log[:idx-r.offset-1]
		}
		r.log = append(r.log, m.Entries[i])
	}
	// The message vouches for the prefix it covered and no further. The
	// log may extend past it — a deposed leader's suffix that this shorter
	// message did not reach and so did not truncate. Acknowledging that
	// suffix would put matchIndex beyond the leader's own log (termAt then
	// indexes out of range); committing it would deliver entries the group
	// never agreed on.
	covered := m.PrevIndex + uint64(len(m.Entries))
	if covered > r.verified {
		r.verified = covered
	}
	c := min(m.Commit, r.verified)
	if covered > max(c, r.commit) && r.commitsOnAppend() && r.termAt(covered) == m.Term {
		// The leader and this member hold the prefix up to an entry of the
		// leader's term: a majority of any membership of at most three.
		c = covered
	}
	if c > r.commit {
		r.commit = c
		r.apply()
	}
	if len(m.Entries) == 0 && m.Commit >= m.PrevIndex {
		return // nothing the leader does not know: see above
	}
	r.reply(m.Leader, true, covered)
}

// reply answers the leader's AppendEntries.
func (r *Raft) reply(leader wire.NodeID, success bool, match uint64) {
	r.io.Stats.Replies.Add(1)
	r.io.Send(leader, &wire.RaftAppendReply{
		Group: r.cfg.Group, Term: r.term, From: r.cfg.Self, Success: success, Match: match,
	})
}

func (r *Raft) onAppendReply(m *wire.RaftAppendReply) {
	if m.Term > r.term {
		r.stepDown(m.Term, wire.NoNode)
		return
	}
	if r.role != Leader || m.Term < r.term {
		return
	}
	if m.Success {
		if m.Match > r.matchIndex[m.From] {
			r.matchIndex[m.From] = m.Match
		}
		if next := m.Match + 1; next > r.nextIndex[m.From] {
			r.nextIndex[m.From] = next
		}
		r.advanceCommit()
		if r.nextIndex[m.From] <= r.LastIndex() {
			r.sendAppend(m.From, nil)
		}
		return
	}
	// Rejected: back up using the follower's hint and retry.
	next := m.Match + 1
	if next < 1 {
		next = 1
	}
	if next < r.nextIndex[m.From] {
		r.nextIndex[m.From] = next
	} else if r.nextIndex[m.From] > 1 {
		r.nextIndex[m.From]--
	}
	r.sendAppend(m.From, nil)
}

func (r *Raft) advanceCommit() {
	for idx := r.LastIndex(); idx > r.commit; idx-- {
		if r.termAt(idx) != r.term {
			break // only entries from the current term commit by counting
		}
		n := 0
		for _, p := range r.cfg.Peers {
			if r.matchIndex[p] >= idx {
				n++
			}
		}
		if n >= r.majority() {
			r.commit = idx
			r.apply()
			if r.commitsOnAppend() {
				// Every follower holding the entry committed it on
				// append; one that does not learns it with the append.
				break
			}
			// Followers learn the new commit index immediately rather
			// than waiting a heartbeat, keeping broadcast latency at one
			// round trip plus one one-way hop. Peers at one matchIndex
			// share a notice, and all the notices of this commit share one
			// allocation.
			notices := make([]wire.RaftAppend, 0, len(r.cfg.Peers)-1)
			var notify *wire.RaftAppend
			for _, p := range r.cfg.Peers {
				if p != r.cfg.Self {
					// A freshly (re-)added peer's matchIndex can trail the
					// compaction horizon; clamp so the probe stays inside
					// the retained log (the peer's reply hint resyncs it).
					prev := r.matchIndex[p]
					if prev < r.offset {
						prev = r.offset
					}
					if notify == nil || notify.PrevIndex != prev {
						notices = append(notices, wire.RaftAppend{
							Group: r.cfg.Group, Term: r.term, Leader: r.cfg.Self,
							PrevIndex: prev, PrevTerm: r.termAt(prev),
							Commit: r.commit, Base: r.offset,
						})
						notify = &notices[len(notices)-1]
					}
					r.io.Stats.AppendsNotice.Add(1)
					r.io.Send(p, notify)
				}
			}
			break
		}
	}
}

func (r *Raft) apply() {
	for r.applied < r.commit {
		r.applied++
		e := r.entryAt(r.applied)
		if e.Payload != nil && r.io.Deliver != nil {
			r.io.Deliver(r.applied, e.Payload)
		}
	}
	r.maybeCompact()
}

// maybeCompact discards applied entries, keeping a safety margin below
// the commit index (and never discarding entries some peer still needs,
// when this member is the leader).
func (r *Raft) maybeCompact() {
	if r.hold || r.applied < compactionMargin {
		return
	}
	horizon := r.applied - compactionMargin
	if r.role == Leader {
		for _, p := range r.cfg.Peers {
			if m := r.matchIndex[p]; m < horizon {
				horizon = m
			}
		}
	}
	if horizon <= r.offset {
		return
	}
	drop := horizon - r.offset
	r.lastOffTerm = r.termAt(horizon)
	// In place: slide the kept entries to the front of the same backing
	// array (nothing else aliases it — messages carry copies) and zero the
	// vacated tail so dropped payloads can be collected.
	kept := copy(r.log, r.log[drop:])
	clear(r.log[kept:])
	r.log = r.log[:kept]
	r.offset = horizon
}

func (r *Raft) onVote(m *wire.RaftVote) {
	if m.Term > r.term {
		r.stepDown(m.Term, wire.NoNode)
	}
	grant := false
	if m.Term >= r.term && (r.votedFor == wire.NoNode || r.votedFor == m.Candidate) {
		// Standard up-to-date check (Raft §5.4.1).
		lastTerm := r.termAt(r.LastIndex())
		if m.LastTerm > lastTerm || (m.LastTerm == lastTerm && m.LastIndex >= r.LastIndex()) {
			grant = true
			r.votedFor = m.Candidate
			r.resetElectionTimer()
		}
	}
	r.io.Send(m.Candidate, &wire.RaftVoteReply{
		Group: r.cfg.Group, Term: r.term, From: r.cfg.Self, Granted: grant,
	})
}

func (r *Raft) onVoteReply(m *wire.RaftVoteReply) {
	if m.Term > r.term {
		r.stepDown(m.Term, wire.NoNode)
		return
	}
	if r.role != Candidate || m.Term < r.term || !m.Granted {
		return
	}
	r.votes[m.From] = true
	if len(r.votes) >= r.majority() {
		r.becomeLeader()
	}
}

// DeferElection pushes this member's next election d further out, until
// a leader's message resets the timer: a group opened for a member that
// has yet to learn it leads gives that member time to hear so.
func (r *Raft) DeferElection(d time.Duration) { r.electionDeadline += d }

// HoldCompaction stops (on) or resumes log compaction. An owner that will
// seat a member at a later boundary holds it from the moment the seat is
// decided: until SetPeers names the member, no matchIndex keeps the
// entries appended in between, and the member must receive them all.
func (r *Raft) HoldCompaction(on bool) { r.hold = on }

// SetPeers reconfigures the group membership. Canopus applies membership
// changes at consensus-cycle boundaries, identically on every member, so
// a single-step reconfiguration (rather than joint consensus) is safe
// here: all members switch quorum definitions at the same logical point.
func (r *Raft) SetPeers(peers []wire.NodeID) {
	r.cfg.Peers = append([]wire.NodeID(nil), peers...)
	// Drop replication state for departed peers. Without this, a peer
	// removed after a crash and later re-added (a rejoin into the same
	// still-open group) would resume from a stale matchIndex that may
	// sit below the compaction horizon reached while it was gone.
	current := make(map[wire.NodeID]bool, len(peers))
	for _, p := range peers {
		current[p] = true
	}
	for p := range r.nextIndex {
		if !current[p] {
			delete(r.nextIndex, p)
			delete(r.matchIndex, p)
		}
	}
	if r.role == Leader {
		for _, p := range r.cfg.Peers {
			if _, ok := r.nextIndex[p]; !ok {
				r.nextIndex[p] = r.LastIndex() + 1
				r.matchIndex[p] = 0
			}
		}
		r.advanceCommit()
	}
}
